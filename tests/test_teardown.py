"""Crash-safe process teardown: exit-path reclamation, munmap
force-deregistration, idempotent deregistration, and the invariant
watchdog."""

from __future__ import annotations

import pytest

from repro.core.audit import (
    InvariantWatchdog, audit_kernel_invariants, audit_pin_leaks,
    audit_tpt_consistency,
)
from repro.errors import (
    InvalidArgument, InvariantViolation, NotRegistered, PageAccountingError,
    ViaError,
)
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.via.constants import VIP_ERROR_CONN_LOST, ViState
from repro.via.locking.refcount import RefcountLocking
from repro.via.machine import Cluster, Machine
from tests.pairs import connected_pair


def _registered_task(machine, npages=4, name="t"):
    task = machine.spawn(name)
    ua = machine.user_agent(task)
    va = task.mmap(npages)
    task.touch_pages(va, npages)
    reg = ua.register_mem(va, npages * PAGE_SIZE)
    return task, ua, va, reg


def _assert_clean(machine):
    assert audit_tpt_consistency(machine.agent) == []
    assert audit_pin_leaks(machine.kernel, machine.agent) == []
    audit_kernel_invariants(machine.kernel)


# ---------------------------------------------------------------------------
# exit-path reclamation
# ---------------------------------------------------------------------------

class TestExitPath:
    @pytest.mark.parametrize("backend", ["kiobuf", "mlock", "refcount",
                                         "pageflags"])
    def test_exit_releases_registrations(self, backend):
        """A task dying with live registrations leaks nothing: the exit
        hook deregisters through the active locking strategy."""
        m = Machine(backend=backend)
        task, _, _, _ = _registered_task(m)
        _registered_task(m, npages=2, name="t2")[0]  # a second process
        task.exit()
        assert m.agent.registrations_of(task.pid) == []
        with pytest.raises(InvalidArgument):
            m.kernel.find_task(task.pid)
        assert not task.alive
        _assert_clean(m)

    def test_exit_releases_every_pin(self):
        m = Machine(backend="kiobuf")
        task, _, va, reg = _registered_task(m, npages=4)
        frames = list(reg.region.frames)
        for f in frames:
            assert m.kernel.pagemap.table.pin_counts[f] > 0
        task.exit()
        for f in frames:
            assert m.kernel.pagemap.table.pin_counts[f] == 0
        assert not any(k.mapped and k.pid == task.pid
                       for k in m.kernel.kiobufs.values())

    def test_exit_drops_protection_tag(self):
        m = Machine()
        task, _, _, _ = _registered_task(m)
        assert task.pid in m.agent._tags
        task.exit()
        assert task.pid not in m.agent._tags

    def test_exit_disconnects_peer_with_conn_lost(self):
        """The surviving peer of a dead process observes
        VIP_ERROR_CONN_LOST on its outstanding descriptors instead of
        hanging."""
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair()
        # The survivor has a receive outstanding when the peer dies.
        rtask = ua_r.task
        rva = rtask.mmap(1)
        rtask.touch_pages(rva, 1)
        rreg = ua_r.register_mem(rva, PAGE_SIZE)
        from repro.via.descriptor import DataSegment, Descriptor
        desc = Descriptor.recv([DataSegment(rreg.handle, rva, PAGE_SIZE)])
        ua_r.post_recv(vi_r, desc)

        ua_s.task.exit()

        assert vi_r.state == ViState.ERROR
        assert vi_r.outstanding == 0
        assert desc.status == VIP_ERROR_CONN_LOST
        assert ua_r.recv_done(vi_r) is desc
        # The victim's VI is gone from its NIC.
        assert vi_s.vi_id not in cluster[0].nic.vis
        with pytest.raises(ViaError):
            ua_r.post_send(vi_r, Descriptor.send(
                [DataSegment(rreg.handle, rva, PAGE_SIZE)]))
        for m in cluster.machines:
            _assert_clean(m)

    def test_exit_emits_teardown_trace(self):
        m = Machine()
        task, ua, _, _ = _registered_task(m)
        ua.create_vi()
        task.exit()
        events = m.kernel.trace.of_kind("via_task_teardown")
        assert len(events) == 1
        assert events[0]["registrations"] == 1
        assert events[0]["vis"] == 1


# ---------------------------------------------------------------------------
# munmap of a still-registered region (satellite 1)
# ---------------------------------------------------------------------------

class TestMunmapForceDeregister:
    def test_munmap_force_deregisters(self):
        """munmap of a registered range must not leave stale TPT
        entries — the regression is keyed off audit_tpt_consistency."""
        m = Machine(backend="kiobuf")
        task, _, va, reg = _registered_task(m, npages=4)
        task.munmap(va, 4)
        assert reg.handle not in m.agent.registrations
        assert audit_tpt_consistency(m.agent) == []
        assert audit_pin_leaks(m.kernel, m.agent) == []
        events = m.kernel.trace.of_kind("via_munmap_deregister")
        assert len(events) == 1
        assert events[0]["handle"] == reg.handle

    def test_partial_overlap_also_deregisters(self):
        m = Machine(backend="kiobuf")
        task, _, va, reg = _registered_task(m, npages=4)
        # Unmap only the last page of the registered range.
        task.munmap(va + 3 * PAGE_SIZE, 1)
        assert reg.handle not in m.agent.registrations
        assert audit_tpt_consistency(m.agent) == []

    def test_disjoint_munmap_keeps_registration(self):
        m = Machine(backend="kiobuf")
        task, _, va, reg = _registered_task(m, npages=2)
        other = task.mmap(2)
        task.touch_pages(other, 2)
        task.munmap(other, 2)
        assert reg.handle in m.agent.registrations
        assert audit_tpt_consistency(m.agent) == []


# ---------------------------------------------------------------------------
# idempotent deregistration (satellite 2)
# ---------------------------------------------------------------------------

class TestDoubleDeregister:
    @pytest.mark.parametrize("backend", ["kiobuf", "refcount", "mlock"])
    def test_double_deregister_raises_typed_error(self, backend):
        m = Machine(backend=backend)
        _, ua, _, reg = _registered_task(m)
        frames = list(reg.region.frames)
        ua.deregister_mem(reg)
        counts = [m.kernel.pagemap.table.counts[f] for f in frames]
        pins = [m.kernel.pagemap.table.pin_counts[f] for f in frames]
        with pytest.raises(NotRegistered):
            ua.deregister_mem(reg)
        # The failed second deregister must not touch any counter.
        assert [m.kernel.pagemap.table.counts[f] for f in frames] == counts
        assert [m.kernel.pagemap.table.pin_counts[f]
                for f in frames] == pins
        assert all(c >= 0 for c in counts) and all(p >= 0 for p in pins)
        audit_kernel_invariants(m.kernel)

    def test_refcount_cookie_is_one_shot(self):
        """Releasing a refcount lock cookie twice raises instead of
        silently dropping references it never took."""
        m = Machine(backend="refcount")
        _, _, _, reg = _registered_task(m)
        cookie = reg.region.lock_cookie
        backend = m.agent.backend
        backend.unlock(m.kernel, cookie)
        with pytest.raises(ViaError):
            backend.unlock(m.kernel, cookie)
        audit_kernel_invariants(m.kernel)
        m.agent.forget_registration(reg.handle)

    def test_refcount_unlock_never_underflows(self):
        """A cookie naming a frame whose count already hit zero raises
        PageAccountingError instead of driving it negative."""
        m = Machine(backend="refcount")
        task = m.spawn("t")
        va = task.mmap(1)
        task.touch_pages(va, 1)
        frame = task.page_table.lookup(va // PAGE_SIZE).frame
        task.munmap(va, 1)   # frame freed: count == 0
        with pytest.raises(PageAccountingError):
            RefcountLocking().unlock(
                m.kernel, ("refcount", [frame], {"released": False}))
        assert m.kernel.pagemap.table.counts[frame] == 0


# ---------------------------------------------------------------------------
# the invariant watchdog
# ---------------------------------------------------------------------------

class TestInvariantWatchdog:
    def test_clean_machine_samples_quietly(self):
        m = Machine()
        wd = m.arm_watchdog(interval_ns=1_000)
        task, _, _, _ = _registered_task(m)
        task.exit()
        assert wd.armed
        assert wd.checks_run > 0
        assert wd.violations == 0
        wd.disarm()
        runs = wd.checks_run
        m.kernel.clock.charge(10_000, "test")
        assert wd.checks_run == runs

    def test_detects_pin_leak_on_cadence(self):
        """A leaked pin surfaces at the next clock sample, not at the
        end of the run."""
        m = Machine()
        task = m.spawn("leaker")
        va = task.mmap(1)
        task.touch_pages(va, 1)
        frame = task.page_table.lookup(va // PAGE_SIZE).frame
        wd = m.arm_watchdog(interval_ns=1_000)
        m.kernel.clock.charge(2_000, "test")   # clean sample
        m.kernel.pagemap.table.incr_pin(frame)   # the leak
        with pytest.raises(InvariantViolation) as exc_info:
            m.kernel.clock.charge(2_000, "test")
        exc = exc_info.value
        assert exc.kind == "pin_leak"
        assert exc.snapshot["boundary"] == "cadence"
        assert exc.snapshot["leaks"][0]["frame"] == frame
        assert "memory" in exc.snapshot
        assert wd.violations == 1
        wd.disarm()
        m.kernel.pagemap.table.decr_pin(frame)

    def test_checks_at_teardown_boundary(self):
        m = Machine()
        task, _, _, _ = _registered_task(m)
        other = m.spawn("bystander")
        ova = other.mmap(1)
        other.touch_pages(ova, 1)
        frame = other.page_table.lookup(ova // PAGE_SIZE).frame
        # Huge interval: only the teardown boundary can fire.
        wd = m.arm_watchdog(interval_ns=10**15)
        m.kernel.pagemap.table.incr_pin(frame)
        with pytest.raises(InvariantViolation) as exc_info:
            task.exit()
        assert exc_info.value.snapshot["boundary"] == \
            f"teardown pid {task.pid}"
        # Teardown itself still completed before the check fired.
        with pytest.raises(InvalidArgument):
            m.kernel.find_task(task.pid)
        wd.disarm()
        m.kernel.pagemap.table.decr_pin(frame)

    @pytest.mark.san_suppress("swap-registered")
    def test_detects_stale_tpt_of_broken_backend(self):
        """The watchdog catches the paper's bug as it happens: refcount
        'locking' lets registered pages swap out, going stale in the
        TPT."""
        m = Machine(backend="refcount", num_frames=64, swap_slots=1024)
        task, _, _, _ = _registered_task(m, npages=4)
        wd = InvariantWatchdog(interval_ns=10**15).arm(m)
        with pytest.raises(InvariantViolation) as exc_info:
            paging.try_to_free_pages(m.kernel,
                                     m.kernel.pagemap.free_count + 1)
            wd.check()
        exc = exc_info.value
        assert exc.kind == "stale_tpt"
        assert exc.snapshot["stale"]
        wd.disarm()

    def test_arms_over_whole_cluster(self):
        cluster = Cluster(2)
        wd = cluster.arm_watchdog(interval_ns=1_000)
        assert len(wd._pairs) == 2
        t0, _, _, _ = _registered_task(cluster[0])
        t1, _, _, _ = _registered_task(cluster[1])
        t0.exit()
        t1.exit()
        assert wd.violations == 0
        assert wd.checks_run >= 4   # two teardown boundaries x two pairs
        wd.disarm()
        for m in cluster.machines:
            assert wd not in m.kernel.notifiers

    def test_manual_check_reports_boundary(self):
        m = Machine()
        wd = InvariantWatchdog().arm((m.kernel, [m.agent]))
        wd.check()
        assert wd.checks_run == 1
        wd.disarm()
