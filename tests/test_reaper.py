"""The orphan reaper: dead-owner reclamation, retry/backoff,
force-escalation, swap-pressure drafting, and cadence scheduling."""

from __future__ import annotations

import pytest

from repro.core.audit import (
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.errors import KiobufError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.reaper import OrphanReaper
from repro.via.machine import Machine


def _leaky_kill(machine, npages=4, name="victim", vis=0):
    """A task that dies without driver cleanup, leaking registrations
    (and optionally VIs)."""
    task = machine.spawn(name)
    ua = machine.user_agent(task)
    va = task.mmap(npages)
    task.touch_pages(va, npages)
    reg = ua.register_mem(va, npages * PAGE_SIZE)
    for _ in range(vis):
        ua.create_vi()
    machine.kernel.kill(task.pid, cleanup=False)
    return task, reg


def _assert_clean(machine):
    assert audit_tpt_consistency(machine.agent) == []
    assert audit_pin_leaks(machine.kernel, machine.agent) == []
    audit_kernel_invariants(machine.kernel)


class TestDeadOwnerReclamation:
    def test_buggy_kill_leaks_until_reaped(self):
        m = Machine(backend="kiobuf")
        task, reg = _leaky_kill(m, vis=2)
        # The leak is real: record, pins, and VIs all survived the kill.
        assert reg.handle in m.agent.registrations
        assert all(m.kernel.pagemap.table.pin_counts[f] > 0
                   for f in reg.region.frames)
        assert sum(1 for v in m.nic.vis.values()
                   if v.owner_pid == task.pid) == 2

        reaper = OrphanReaper(m.kernel, agents=[m.agent])
        report = reaper.scan()
        assert report.registrations_reclaimed == 1
        assert report.vis_reclaimed == 2
        assert report.frames_freed >= 4
        assert reg.handle not in m.agent.registrations
        assert task.pid not in m.agent._tags
        _assert_clean(m)

    def test_second_scan_finds_nothing(self):
        m = Machine(backend="kiobuf")
        _leaky_kill(m)
        reaper = OrphanReaper(m.kernel, agents=[m.agent])
        assert reaper.scan().reclaimed_total > 0
        report = reaper.scan()
        assert report.reclaimed_total == 0
        assert report.failures == 0

    def test_live_tasks_are_untouched(self):
        m = Machine(backend="kiobuf")
        keeper = m.spawn("keeper")
        ua = m.user_agent(keeper)
        va = keeper.mmap(2)
        keeper.touch_pages(va, 2)
        reg = ua.register_mem(va, 2 * PAGE_SIZE)
        _leaky_kill(m)
        OrphanReaper(m.kernel, agents=[m.agent]).scan()
        assert reg.handle in m.agent.registrations
        assert all(m.kernel.pagemap.table.pin_counts[f] > 0
                   for f in reg.region.frames)
        _assert_clean(m)

    def test_orphaned_kiobuf_without_registration(self):
        """A crash between pin and record leaves a bare kiobuf; the
        reaper unmaps it."""
        m = Machine(backend="kiobuf")
        task = m.spawn("victim")
        va = task.mmap(2)
        task.touch_pages(va, 2)
        kio = m.kernel.map_user_kiobuf(task, va, 2 * PAGE_SIZE)
        m.kernel.kill(task.pid, cleanup=False)
        assert kio.mapped
        report = OrphanReaper(m.kernel, agents=[m.agent]).scan()
        assert report.kiobufs_reclaimed == 1
        assert not kio.mapped
        _assert_clean(m)


class TestRetryAndEscalation:
    def test_transient_failure_retries_with_backoff(self):
        m = Machine(backend="kiobuf")
        _leaky_kill(m)
        fails = {"left": 2}
        real_unmap = m.kernel.unmap_kiobuf

        def flaky_unmap(kio):
            if fails["left"] > 0:
                fails["left"] -= 1
                raise KiobufError("transient unmap failure (injected)")
            real_unmap(kio)

        m.kernel.unmap_kiobuf = flaky_unmap
        reaper = OrphanReaper(m.kernel, agents=[m.agent])
        reaper.backoff_base_ns = 1_000_000
        r1 = reaper.scan()
        assert r1.failures == 1 and r1.registrations_reclaimed == 0
        # Inside the backoff window: deferred, not retried.
        r2 = reaper.scan()
        assert r2.deferred >= 1 and r2.failures == 0
        m.kernel.clock.charge(2_000_000, "test")
        r3 = reaper.scan()
        assert r3.failures == 1           # second injected failure
        m.kernel.clock.charge(4_000_000, "test")
        r4 = reaper.scan()
        assert r4.registrations_reclaimed == 1
        assert m.kernel.trace.count("reaper_retry") == 2
        _assert_clean(m)

    def test_permanent_failure_escalates_to_force(self):
        """A backend that can never unlock still converges: the record
        and TPT entry are force-dropped, then the kiobuf sweep releases
        the pin."""
        m = Machine(backend="kiobuf")
        _, reg = _leaky_kill(m)

        def broken_unlock(kernel, cookie):
            raise KiobufError("backend permanently wedged (injected)")

        m.agent.backend.unlock = broken_unlock
        reaper = OrphanReaper(m.kernel, agents=[m.agent])
        reaper.max_attempts = 3
        reaper.backoff_base_ns = 0
        reports = [reaper.scan() for _ in range(4)]
        assert sum(r.failures for r in reports) == 3
        assert reports[3].registrations_forced == 1
        assert reg.handle not in m.agent.registrations
        # The pin the backend stranded was mopped up via the kiobuf
        # sweep (the cookie is the kiobuf itself).
        final = reaper.scan()
        assert final.reclaimed_total <= 1
        for _ in range(3):
            reaper.scan()
        assert not any(m.kernel.pagemap.table.pin_counts[f] > 0
                       for f in reg.region.frames)
        _assert_clean(m)


class TestReaperUnderSwapPressure:
    def test_reclaim_drafts_reaper_for_orphaned_registrations(self):
        """try_to_free_pages falls short, drafts the reaper, and the
        dead process's pinned frames come back — while the live
        process's registration resists."""
        m = Machine(backend="kiobuf", num_frames=96, swap_slots=4,
                    min_free_pages=4)
        keeper = m.spawn("keeper")
        ua = m.user_agent(keeper)
        kva = keeper.mmap(8)
        keeper.touch_pages(kva, 8)
        keeper_reg = ua.register_mem(kva, 8 * PAGE_SIZE)
        _, dead_reg = _leaky_kill(m, npages=16)
        OrphanReaper(m.kernel, agents=[m.agent])   # attaches kernel.reaper

        free0 = m.kernel.pagemap.free_count
        freed = paging.try_to_free_pages(m.kernel, free0 + 12)
        assert freed >= 16   # the dead registration's frames came back
        assert dead_reg.handle not in m.agent.registrations
        assert keeper_reg.handle in m.agent.registrations
        assert all(m.kernel.pagemap.table.pin_counts[f] > 0
                   for f in keeper_reg.region.frames)
        assert m.kernel.trace.count("reaper_scan") >= 1
        _assert_clean(m)

    def test_orphan_frames_freed_when_unexplained(self):
        """swap_out's unmapped-but-referenced orphans are reclaimed once
        no registration explains them."""
        m = Machine(num_frames=64)
        task = m.spawn("t")
        va = task.mmap(1)
        task.touch_pages(va, 1)
        frame = task.page_table.lookup(va // PAGE_SIZE).frame
        m.kernel.pagemap.get_page(frame)    # a leaked driver reference
        paging.try_to_free_pages(m.kernel, m.kernel.pagemap.free_count + 1)
        assert m.kernel.pagemap.table.tags[frame] == "orphan"
        assert m.kernel.pagemap.table.counts[frame] == 1
        report = OrphanReaper(m.kernel, agents=[m.agent]).scan()
        assert report.orphan_frames_freed >= 1
        assert m.kernel.pagemap.table.counts[frame] == 0
        audit_kernel_invariants(m.kernel)


class TestCadence:
    def test_started_reaper_scans_on_clock(self):
        m = Machine(backend="kiobuf")
        reaper = m.start_reaper(interval_ns=1_000)
        _leaky_kill(m)
        scans0 = reaper.scans
        m.kernel.clock.charge(5_000, "test")
        assert reaper.scans > scans0
        _assert_clean(m)
        reaper.stop()
        scans1 = reaper.scans
        m.kernel.clock.charge(50_000, "test")
        assert reaper.scans == scans1

    def test_a_scan_between_firings_delays_the_next(self):
        m = Machine()
        reaper = m.start_reaper(interval_ns=1_000_000)
        m.kernel.clock.charge(500_000, "test")
        reaper.scan()                        # drafted mid-interval
        m.kernel.clock.charge(600_000, "test")
        assert reaper.scans == 1             # the firing fell inside it
        m.kernel.clock.charge(500_000, "test")
        assert reaper.scans == 2
        reaper.stop()

    def test_scan_emits_report_trace_only_when_work_found(self):
        m = Machine(backend="kiobuf")
        reaper = OrphanReaper(m.kernel, agents=[m.agent])
        reaper.scan()
        assert m.kernel.trace.count("reaper_scan") == 0
        _leaky_kill(m)
        reaper.scan()
        assert m.kernel.trace.count("reaper_scan") == 1


class TestTenantAttribution:
    """ReaperReport's per-pid / per-uid reclamation breakdown."""

    def test_breakdown_by_pid_and_uid(self):
        m = Machine(backend="kiobuf")
        a = m.spawn("a", uid=2001)
        ua_a = m.user_agent(a)
        b = m.spawn("b", uid=2002)
        ua_b = m.user_agent(b)
        for task, ua, n in ((a, ua_a, 2), (b, ua_b, 1)):
            for _ in range(n):
                va = task.mmap(2)
                task.touch_pages(va, 2)
                ua.register_mem(va, 2 * PAGE_SIZE)
        m.kernel.kill(a.pid, cleanup=False)
        m.kernel.kill(b.pid, cleanup=False)
        report = OrphanReaper(m.kernel, agents=[m.agent]).scan()
        assert report.reclaimed_by_pid == {a.pid: 2, b.pid: 1}
        assert report.reclaimed_by_uid == {2001: 2, 2002: 1}
        _assert_clean(m)

    def test_vi_reclamation_attributed(self):
        m = Machine(backend="kiobuf")
        task, _reg = _leaky_kill(m, vis=2)
        report = OrphanReaper(m.kernel, agents=[m.agent]).scan()
        # 1 registration + 2 VIs, all the same pid (default-uid tenant).
        assert report.reclaimed_by_pid == {task.pid: 3}
        assert report.reclaimed_by_uid == {task.uid: 3}

    def test_clean_scan_has_empty_breakdown(self):
        m = Machine(backend="kiobuf")
        report = OrphanReaper(m.kernel, agents=[m.agent]).scan()
        assert report.reclaimed_by_pid == {}
        assert report.reclaimed_by_uid == {}

    def test_tenant_counters_published(self):
        m = Machine(backend="kiobuf")
        m.obs.enable()
        _leaky_kill(m, name="victim")
        reaper = OrphanReaper(m.kernel, agents=[m.agent])
        reaper.start()
        reaper.scan()
        counter = m.obs.metrics.counter("kernel.reaper.tenant.1000.reclaimed")
        assert counter.value >= 1
