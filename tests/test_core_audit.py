"""Tests for the audit oracle.

The audits and the reaper's scan phases answer from the agents' owner
index and a few whole-list passes; the per-entry walks they replaced
are kept below as oracles.  Seeded operation sequences on three
backends check every audit and every reaper phase against them after
each step, and one corruption golden per invariant checks that the
watchdog's very next sample reports it with the walk's message.
"""

import itertools
import os
import random
from collections import Counter
from dataclasses import asdict

import pytest

from repro.analysis.events import PIN_RELEASED
from repro.core.audit import (
    LeakedPin, StaleEntry, audit_kernel_invariants, audit_pin_leaks,
    audit_tpt_consistency, explained_pins,
)
from repro.errors import InvalidArgument, InvariantViolation, \
    PageAccountingError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.flags import PG_PAGECACHE
from repro.kernel.reaper import OrphanReaper, _Backoff
from repro.via import tpt
from repro.via.machine import Machine
from repro.via.tpt import INVALID_FRAME

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


# --------------------------------------------------------------------------
# Oracles: the per-entry walks, one frame or page at a time
# --------------------------------------------------------------------------

def oracle_tpt(agent):
    """Every registration's pages, one lookup per page."""
    kernel = agent.kernel
    stale = []
    for reg in agent.registrations.values():
        try:
            task = kernel.find_task(reg.pid)
        except InvalidArgument:
            continue
        first_vpn = reg.region.first_vpn
        for i, tpt_frame in enumerate(reg.region.frames):
            if reg.region.odp and tpt_frame == INVALID_FRAME:
                continue
            vpn = first_vpn + i
            pte = task.page_table.lookup(vpn)
            actual = pte.frame if (pte is not None and pte.present) else None
            if actual != tpt_frame:
                stale.append(StaleEntry(
                    handle=reg.handle, pid=reg.pid, vpn=vpn,
                    tpt_frame=tpt_frame, actual_frame=actual))
    return stale


def oracle_explained(agents, kernel=None):
    """Registered pages (and mapped kiobuf frames when ``kernel`` is
    given), counted one element at a time."""
    expected = Counter()
    for agent in agents:
        for reg in agent.registrations.values():
            for frame in reg.region.frames:
                expected[frame] += 1
    if kernel is not None:
        for kio in kernel.kiobufs.values():
            if kio.mapped:
                for frame in kio.frames:
                    expected[frame] += 1
    return expected


def oracle_pin_leaks(kernel, *agents, count_kiobufs=False):
    expected = oracle_explained(agents, kernel if count_kiobufs else None)
    return [LeakedPin(frame=frame, pin_count=pins,
                      expected=expected.get(frame, 0))
            for frame, pins in enumerate(kernel.pagemap.table.pin_counts)
            if pins > expected.get(frame, 0)]


def oracle_kernel_invariants(kernel):
    """The message of the first violated invariant, or None."""
    pm = kernel.pagemap
    counts = pm.table.counts
    pin_counts = pm.table.pin_counts
    seen = set()
    for frame in pm._free:
        if frame in seen:
            return f"frame {frame} on the free list twice"
        seen.add(frame)
    if len(pm._free) != len(pm._free_set):
        return ("free list and free set disagree "
                f"({len(pm._free)} vs {len(pm._free_set)})")
    for frame in pm._free:
        if counts[frame] != 0:
            return f"frame {frame} free with refcount {counts[frame]}"
    slot_owner = {}
    for task in kernel.tasks:
        present = 0
        for vpn in sorted(task.page_table._entries):
            pte = task.page_table.lookup(vpn)
            if pte.present:
                present += 1
                if counts[pte.frame] < 1:
                    return (f"pid {task.pid} vpn {vpn} maps free frame "
                            f"{pte.frame}")
                if pm.table.tags[pte.frame] == "kernel-image":
                    return (f"pid {task.pid} vpn {vpn} maps kernel frame "
                            f"{pte.frame}")
            elif pte.swapped:
                if pte.swap_slot in slot_owner:
                    return (f"swap slot {pte.swap_slot} referenced by both "
                            f"{slot_owner[pte.swap_slot]} and "
                            f"{(task.pid, vpn)}")
                slot_owner[pte.swap_slot] = (task.pid, vpn)
        if task.page_table.resident_count() != present:
            return (f"pid {task.pid} resident counter "
                    f"{task.page_table.resident_count()} != {present} "
                    f"present PTEs")
    frames = range(pm.num_frames)
    for frame in frames:
        if pin_counts[frame] > 0 and counts[frame] == 0:
            return f"frame {frame} pinned ({pin_counts[frame]}) but free"
    for frame in sorted(pm.table.pinned):
        if pin_counts[frame] == 0:
            return f"frame {frame} is in the pinned set with no pins"
    for frame in frames:
        if pin_counts[frame] < 0 or counts[frame] < 0:
            return f"frame {frame} has negative counters"
    for frame in frames:
        if pin_counts[frame] > 0 and frame not in pm.table.pinned:
            return (f"frame {frame} has {pin_counts[frame]} pins but is "
                    f"missing from the pinned set")
    return None


def kernel_verdict(kernel):
    try:
        audit_kernel_invariants(kernel)
    except PageAccountingError as exc:
        return str(exc)
    return None


class OracleReaper(OrphanReaper):
    """The reaper with each scan phase walking every registration,
    kiobuf and pinned frame."""

    def _reap_dead_registrations(self, report):
        for agent in self.agents:
            for reg in list(agent.registrations.values()):
                if self._alive(reg.pid):
                    continue
                key = ("reg", id(agent), reg.handle)
                if self._attempts_of(key) >= self.max_attempts:
                    agent.forget_registration(reg.handle)
                    self._backoff.pop(key, None)
                    report.registrations_forced += 1
                    report.attribute(reg.pid, self._reg_uid(reg))
                    report.notes.append(
                        f"forced handle {reg.handle} of dead pid "
                        f"{reg.pid} after {self.max_attempts} attempts")
                    continue
                if self._attempt(key,
                                 lambda a=agent, h=reg.handle:
                                 a.reclaim_registration(h),
                                 report):
                    report.registrations_reclaimed += 1
                    report.attribute(reg.pid, self._reg_uid(reg))

    def _reap_dead_kiobufs(self, report):
        referenced = {id(reg.region.lock_cookie)
                      for agent in self.agents
                      for reg in agent.registrations.values()}
        for kio in list(self.kernel.kiobufs.values()):
            if not kio.mapped or self._alive(kio.pid):
                continue
            if id(kio) in referenced:
                continue
            if self._attempt(("kio", kio.kiobuf_id),
                             lambda k=kio: self.kernel.unmap_kiobuf(k),
                             report):
                report.kiobufs_reclaimed += 1
                report.attribute(kio.pid, self._uid_of(kio.pid))

    def _reap_orphan_frames(self, report):
        explained = {frame
                     for agent in self.agents
                     for reg in agent.registrations.values()
                     for frame in reg.region.frames}
        table = self.kernel.pagemap.table
        for frame in sorted(table.orphan_candidates):
            if (table.counts[frame] <= 0
                    or table.pin_counts[frame] > 0
                    or table.mappings[frame] is not None
                    or frame in explained):
                continue
            if self._attempt(("orphan", frame),
                             lambda f=frame: self._free_orphan(f),
                             report):
                report.orphan_frames_freed += 1

    def _reap_unexplained_pins(self, report):
        expected = oracle_explained(self.agents, self.kernel)
        now = self.kernel.clock.now_ns
        pagemap = self.kernel.pagemap
        excess_frames = set()
        for frame in pagemap.pinned_frames():
            excess = pagemap.table.pin_counts[frame] - expected.get(frame, 0)
            if excess <= 0:
                self._backoff.pop(("pin", frame), None)
                continue
            excess_frames.add(frame)
            key = ("pin", frame)
            state = self._backoff.setdefault(key, _Backoff())
            if now < state.next_due_ns:
                report.deferred += 1
                continue
            state.attempts += 1
            if state.attempts < self.max_attempts:
                state.next_due_ns = now + self.backoff_base_ns * (
                    2 ** (state.attempts - 1))
                report.deferred += 1
                continue
            for _ in range(excess):
                pagemap.table.decr_pin(frame)
            self.kernel.events.record(
                PIN_RELEASED, frame=frame, excess=excess,
                sightings=state.attempts, frames=(frame,) * excess,
                actor="reaper")
            self._backoff.pop(key, None)
            excess_frames.discard(frame)
            report.pins_force_released += excess
        for key in [k for k in self._backoff
                    if k[0] == "pin" and k[1] not in excess_frames]:
            self._backoff.pop(key)


# --------------------------------------------------------------------------
# Seeded operation sequences
# --------------------------------------------------------------------------

BUF_PAGES = 6


def run_sequence(backend, seed, reaper_cls=OrphanReaper, steps=80,
                 check=None):
    """Drive one machine through ``steps`` seeded operations, running
    ``check(machine)`` and then one reaper scan after each; returns a
    per-step record of the scan report and the resulting state."""
    m = Machine(num_frames=160, swap_slots=2048, backend=backend)
    kernel, agent = m.kernel, m.agent
    reaper = reaper_cls(kernel, agents=[agent])
    reaper.max_attempts = 2
    reaper.backoff_base_ns = 1
    rng = random.Random(seed)
    uas, bufs = {}, {}

    def add_buffer(pid):
        task = kernel.find_task(pid)
        va = task.mmap(BUF_PAGES)
        task.touch_pages(va, BUF_PAGES)
        bufs[pid].append(va)

    def spawn():
        task = m.spawn()
        uas[task.pid], bufs[task.pid] = m.user_agent(task), []
        for _ in range(2):
            add_buffer(task.pid)

    for _ in range(3):
        spawn()
    ops = ["register", "register", "nested", "deregister", "munmap",
           "swap", "fork", "kill", "leak_pin", "kiobuf"]
    if backend == "odp":
        ops += ["fault", "fault"]
    log = []
    for _ in range(steps):
        op = rng.choice(ops)
        pid = rng.choice(sorted(bufs))
        task, ua = kernel.find_task(pid), uas[pid]
        live_regs = [r for r in agent.registrations.values()
                     if r.pid in bufs]
        if op == "register":
            va = rng.choice(bufs[pid])
            first = rng.randrange(BUF_PAGES)
            count = rng.randint(1, BUF_PAGES - first)
            ua.register_mem(va + first * PAGE_SIZE, count * PAGE_SIZE)
        elif op == "nested" and agent.registrations_of(pid):
            reg = rng.choice(agent.registrations_of(pid))
            ua.register_mem(reg.va, reg.nbytes)
        elif op == "deregister" and live_regs:
            uas[(reg := rng.choice(live_regs)).pid].deregister_mem(reg)
        elif op == "munmap":
            va = bufs[pid].pop(rng.randrange(len(bufs[pid])))
            task.munmap(va, BUF_PAGES)
            add_buffer(pid)
        elif op == "swap":
            paging.swap_out(kernel, rng.randint(1, 24))
        elif op == "fork" and len(bufs) < 5:
            child = kernel.fork_task(task)
            uas[child.pid] = m.user_agent(child)
            bufs[child.pid] = list(bufs[pid])
        elif op == "kill" and len(bufs) > 1:
            kernel.kill(pid, cleanup=rng.random() < 0.5)
            del uas[pid], bufs[pid]
        elif op == "leak_pin":
            va = rng.choice(bufs[pid])
            kernel.pin_user_page(task, task.vpn_of(va)
                                 + rng.randrange(BUF_PAGES))
        elif op == "kiobuf":
            # Raw I/O in flight: pins no registration explains.
            kernel.map_user_kiobuf(task, rng.choice(bufs[pid]), PAGE_SIZE)
        elif op == "fault" and live_regs:
            reg = rng.choice(live_regs)
            agent.service_translation_fault(
                reg.handle, (rng.randrange(reg.region.npages),))
        if check is not None:
            check(m)
        report = asdict(reaper.scan())
        notes = report.pop("notes")
        if check is not None:
            check(m)
        table = kernel.pagemap.table
        log.append((
            op, report, len(notes),
            {f: table.pin_counts[f] for f in sorted(table.pinned)},
            [(h, r.pid, r.va, r.nbytes)
             for h, r in agent.registrations.items()],
            sorted((k.kiobuf_id, k.pid) for k in kernel.kiobufs.values()),
            kernel.pagemap.free_count, kernel.clock.now_ns))
    return log


def assert_audits_match_oracles(m):
    kernel, agent = m.kernel, m.agent
    assert audit_tpt_consistency(agent) == oracle_tpt(agent)
    for count_kiobufs in (False, True):
        assert audit_pin_leaks(kernel, agent, count_kiobufs=count_kiobufs) \
            == oracle_pin_leaks(kernel, agent, count_kiobufs=count_kiobufs)
    assert kernel_verdict(kernel) == oracle_kernel_invariants(kernel)
    assert explained_pins([agent]) == oracle_explained([agent])
    assert explained_pins([agent], kernel.kiobufs.values()) \
        == oracle_explained([agent], kernel)
    owners = {r.pid for r in agent.registrations.values()}
    assert sorted(agent.owners()) == sorted(owners)
    for pid in owners | set(kernel.tasks_by_pid):
        assert agent.registrations_of(pid) == [
            r for r in agent.registrations.values() if r.pid == pid]


BACKENDS = ["kiobuf",
            pytest.param("refcount",
                         marks=pytest.mark.san_suppress("swap-registered")),
            "odp"]


class TestOracleParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_audits_match_oracles_after_every_step(self, backend):
        run_sequence(backend, SEED, check=assert_audits_match_oracles)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reaper_phases_match_oracle_reaper(self, backend, monkeypatch):
        logs = []
        for reaper_cls in (OracleReaper, OrphanReaper):
            # Same handles on both runs, so the records compare equal.
            monkeypatch.setattr(tpt, "_handles", itertools.count(1))
            logs.append(run_sequence(backend, SEED, reaper_cls))
        assert logs[0] == logs[1]
        totals = Counter()
        for _, report, *_ in logs[1]:
            totals.update({k: v for k, v in report.items()
                           if isinstance(v, int)})
        # The sequence reached the phases that do work.
        for phase in ("registrations_reclaimed", "kiobufs_reclaimed",
                      "orphan_frames_freed", "pins_force_released",
                      "deferred"):
            assert totals[phase] > 0, phase

    @pytest.mark.no_posthoc_audit
    def test_not_present_pte_keeping_its_frame_is_stale(self):
        m = Machine(num_frames=256, backend="kiobuf")
        t = m.spawn()
        va = t.mmap(2)
        reg = m.user_agent(t).register_mem(va, 2 * PAGE_SIZE)
        pte = t.page_table.lookup(t.vpn_of(va) + 1)
        pte.present = False                          # corrupt, frame kept
        entry = StaleEntry(handle=reg.handle, pid=t.pid,
                           vpn=t.vpn_of(va) + 1, tpt_frame=pte.frame,
                           actual_frame=None)
        assert audit_tpt_consistency(m.agent) == oracle_tpt(m.agent) \
            == [entry]

    def test_stale_report_keeps_registration_order(self):
        """With several owners stale, the report lists entries in
        registration order, as the per-entry walk does."""
        m = Machine(num_frames=256, backend="refcount")
        owners = [(t, m.user_agent(t), t.mmap(2))
                  for t in (m.spawn(), m.spawn())]
        for _ in range(2):
            for t, ua, va in owners:
                ua.register_mem(va, 2 * PAGE_SIZE)
        for t, _, va in owners:
            t.page_table.clear(t.vpn_of(va) + 1)     # corrupt
        stale = audit_tpt_consistency(m.agent)
        assert stale == oracle_tpt(m.agent)
        assert [(e.pid, e.vpn) for e in stale] == [
            (t.pid, t.vpn_of(va) + 1) for _ in range(2) for t, _, va in owners]


class TestTptConsistency:
    def test_healthy_registration_is_clean(self):
        m = Machine(num_frames=256, backend="kiobuf")
        t = m.spawn()
        ua = m.user_agent(t)
        va = t.mmap(4)
        ua.register_mem(va, 4 * PAGE_SIZE)
        assert audit_tpt_consistency(m.agent) == []

    @pytest.mark.san_suppress("swap-registered")
    def test_detects_staleness_after_swap(self):
        m = Machine(num_frames=256, backend="refcount")
        t = m.spawn()
        ua = m.user_agent(t)
        va = t.mmap(4)
        reg = ua.register_mem(va, 4 * PAGE_SIZE)
        paging.swap_out(m.kernel, m.kernel.pagemap.num_frames)
        t.touch_pages(va, 4)
        stale = audit_tpt_consistency(m.agent)
        assert len(stale) == 4
        assert all(e.handle == reg.handle for e in stale)
        assert all(e.actual_frame != e.tpt_frame for e in stale)

    @pytest.mark.san_suppress("swap-registered")
    def test_nonresident_pages_reported_as_none(self):
        m = Machine(num_frames=256, backend="refcount")
        t = m.spawn()
        ua = m.user_agent(t)
        va = t.mmap(2)
        ua.register_mem(va, 2 * PAGE_SIZE)
        paging.swap_out(m.kernel, m.kernel.pagemap.num_frames)
        stale = audit_tpt_consistency(m.agent)
        assert len(stale) == 2
        assert all(e.actual_frame is None for e in stale)

    def test_kiobuf_stays_clean_under_pressure(self):
        m = Machine(num_frames=256, backend="kiobuf")
        t = m.spawn()
        ua = m.user_agent(t)
        va = t.mmap(8)
        ua.register_mem(va, 8 * PAGE_SIZE)
        for _ in range(4):
            paging.swap_out(m.kernel, m.kernel.pagemap.num_frames)
        assert audit_tpt_consistency(m.agent) == []


class TestKernelInvariants:
    def test_healthy_kernel_passes(self, kernel):
        t = kernel.create_task()
        va = t.mmap(8)
        t.touch_pages(va, 8)
        paging.swap_out(kernel, 4)
        t.touch_pages(va, 8)
        audit_kernel_invariants(kernel)

    @pytest.mark.no_posthoc_audit
    def test_detects_pte_to_free_frame(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"x")
        frame = t.physical_pages(va, 1)[0]
        kernel.pagemap.put_page(frame)   # corrupt: frame freed, PTE live
        with pytest.raises(PageAccountingError):
            audit_kernel_invariants(kernel)

    @pytest.mark.no_posthoc_audit
    def test_detects_shared_swap_slot(self, kernel):
        a = kernel.create_task()
        b = kernel.create_task()
        va_a = a.mmap(1)
        va_b = b.mmap(1)
        a.write(va_a, b"x")
        paging.swap_out(kernel, 1)
        slot = a.page_table.lookup(a.vpn_of(va_a)).swap_slot
        b.page_table.set_swapped(b.vpn_of(va_b), slot)   # corrupt
        with pytest.raises(PageAccountingError):
            audit_kernel_invariants(kernel)

    @pytest.mark.no_posthoc_audit
    def test_detects_stale_resident_counter(self, kernel):
        t = kernel.create_task()
        va = t.mmap(4)
        t.touch_pages(va, 4)
        audit_kernel_invariants(kernel)
        t.page_table._resident += 1                # corrupt
        with pytest.raises(PageAccountingError,
                           match="resident counter 5 != 4"):
            audit_kernel_invariants(kernel)


class TestPinCountBehindThePinnedSet:
    """``pin_counts[f] = 3`` written straight into the column leaves
    ``f`` out of the pinned set, which the audits' walks start from."""

    @pytest.fixture
    def bypassed(self):
        m = Machine(num_frames=64, backend="kiobuf")
        task = m.spawn()
        va = task.mmap(2)
        task.touch_pages(va, 2)
        frame = task.physical_pages(va, 2)[1]
        table = m.kernel.pagemap.table
        table.pin_counts[frame] = 3
        assert frame not in table.pinned
        yield m, frame
        table.pin_counts[frame] = 0

    def test_pin_leak_audit_reports_the_frame(self, bypassed):
        m, frame = bypassed
        leak = LeakedPin(frame=frame, pin_count=3, expected=0)
        assert audit_pin_leaks(m.kernel, m.agent) == [leak]
        assert audit_pin_leaks(m.kernel, m.agent,
                               count_kiobufs=True) == [leak]
        assert oracle_pin_leaks(m.kernel, m.agent) == [leak]

    def test_invariant_5_flags_the_frame(self, bypassed):
        m, frame = bypassed
        detail = (f"frame {frame} has 3 pins but is missing from the "
                  f"pinned set")
        assert kernel_verdict(m.kernel) == detail
        assert oracle_kernel_invariants(m.kernel) == detail


class TestSummaries:
    def test_orphans_classified(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"x")
        frame = t.physical_pages(va, 1)[0]
        kernel.pagemap.get_page(frame)
        paging.swap_out(kernel, kernel.pagemap.num_frames)
        table = kernel.pagemap.table
        orphans = [f for f in range(table.num_frames)
                   if table.counts[f] and table.mappings[f] is None
                   and not table.flags[f] & PG_PAGECACHE
                   and table.tags[f] == "orphan"]
        assert orphans == [frame]


# --------------------------------------------------------------------------
# Corruption goldens: one per invariant, caught at the very next sample
# --------------------------------------------------------------------------

class _Armed:
    """A kiobuf machine with one task: pages 0-3 of an 8-page buffer
    registered, pages 4-7 only mapped, and a watchdog that has taken one
    clean sample."""

    INTERVAL = 1_000

    def __init__(self):
        self.m = Machine(num_frames=256, backend="kiobuf")
        self.kernel, self.agent = self.m.kernel, self.m.agent
        self.table = self.kernel.pagemap.table
        self.task = self.m.spawn("app")
        self.va = self.task.mmap(8)
        self.task.touch_pages(self.va, 8)
        self.vpn = self.task.vpn_of(self.va)
        self.reg = self.m.user_agent(self.task).register_mem(
            self.va, 4 * PAGE_SIZE)
        self.wd = self.m.arm_watchdog(interval_ns=self.INTERVAL)
        self.kernel.clock.charge(self.INTERVAL, "test")
        assert self.wd.checks_run == 1 and self.wd.violations == 0

    def frame(self, page):
        return self.task.page_table.lookup(self.vpn + page).frame

    def next_sample(self, kind, detail):
        """The next cadence sample raises ``kind`` with ``detail``."""
        checks = self.wd.checks_run
        with pytest.raises(InvariantViolation) as info:
            self.kernel.clock.charge(self.INTERVAL, "test")
        assert self.wd.checks_run == checks + 1
        assert str(info.value) == \
            f"invariant violation ({kind}) at cadence: {detail}"
        self.wd.disarm()
        return info.value.snapshot


@pytest.fixture
def armed():
    return _Armed()


@pytest.mark.no_posthoc_audit
class TestWatchdogGoldens:
    def test_counts_column_write(self, armed):
        frame = armed.frame(1)
        armed.table.counts[frame] = 0
        detail = f"pid {armed.task.pid} vpn {armed.vpn + 1} maps free " \
                 f"frame {frame}"
        assert oracle_kernel_invariants(armed.kernel) == detail
        armed.next_sample("kernel", detail)

    def test_pin_counts_column_write(self, armed):
        frame = armed.frame(2)
        armed.table.pin_counts[frame] += 2      # registration + kiobuf = 2
        snap = armed.next_sample("pin_leak", "1 leaked pins")
        leak = LeakedPin(frame=frame, pin_count=3, expected=2)
        assert snap["leaks"] == [asdict(leak)]
        assert oracle_pin_leaks(armed.kernel, armed.agent,
                                count_kiobufs=True) == [leak]

    def test_region_frame_overwrite(self, armed):
        actual = armed.frame(3)
        armed.reg.region.frames[3] = armed.frame(5)
        snap = armed.next_sample("stale_tpt", "1 stale TPT entries")
        entry = StaleEntry(handle=armed.reg.handle, pid=armed.task.pid,
                           vpn=armed.vpn + 3, tpt_frame=armed.frame(5),
                           actual_frame=actual)
        assert snap["stale"] == [asdict(entry)]
        assert oracle_tpt(armed.agent) == [entry]

    def test_cleared_pte_under_registration(self, armed):
        frame = armed.frame(0)
        armed.task.page_table.clear(armed.vpn)
        snap = armed.next_sample("stale_tpt", "1 stale TPT entries")
        entry = StaleEntry(handle=armed.reg.handle, pid=armed.task.pid,
                           vpn=armed.vpn, tpt_frame=frame,
                           actual_frame=None)
        assert snap["stale"] == [asdict(entry)]
        assert oracle_tpt(armed.agent) == [entry]

    def test_kernel_image_mapping(self, armed):
        armed.task.page_table.set_mapping(armed.vpn + 6, 0, writable=True)
        detail = f"pid {armed.task.pid} vpn {armed.vpn + 6} maps kernel " \
                 f"frame 0"
        assert oracle_kernel_invariants(armed.kernel) == detail
        armed.next_sample("kernel", detail)

    def test_duplicated_swap_slot(self, armed):
        other = armed.m.spawn("other")
        ova = other.mmap(1)
        paging.swap_out(armed.kernel, 1)
        victim = next((vpn, pte) for vpn, pte in
                      armed.task.page_table._entries.items() if pte.swapped)
        other.page_table.set_swapped(other.vpn_of(ova), victim[1].swap_slot)
        detail = f"swap slot {victim[1].swap_slot} referenced by both " \
                 f"{(armed.task.pid, victim[0])} and " \
                 f"{(other.pid, other.vpn_of(ova))}"
        assert oracle_kernel_invariants(armed.kernel) == detail
        armed.next_sample("kernel", detail)

    def test_pinned_but_free(self, armed):
        frame = armed.kernel.pagemap.alloc("driver")
        armed.table.counts[frame] = 0
        armed.table.set_pin_count(frame, 1)
        detail = f"frame {frame} pinned (1) but free"
        assert oracle_kernel_invariants(armed.kernel) == detail
        armed.next_sample("kernel", detail)

    @pytest.mark.parametrize("column", ["counts", "pin_counts"])
    def test_negative_counter(self, armed, column):
        frame = armed.kernel.pagemap.alloc("driver")
        getattr(armed.table, column)[frame] = -1
        detail = f"frame {frame} has negative counters"
        assert oracle_kernel_invariants(armed.kernel) == detail
        armed.next_sample("kernel", detail)

    def test_corrupted_resident_counter(self, armed):
        armed.task.page_table._resident -= 1
        detail = f"pid {armed.task.pid} resident counter 7 != 8 present PTEs"
        assert oracle_kernel_invariants(armed.kernel) == detail
        armed.next_sample("kernel", detail)

    def test_pin_moved_off_a_listed_frame(self, armed):
        # The pinned set and the column's nonzero count stay the same
        # size; only the listed frame's own count shows the move.
        a = armed.kernel.pagemap.alloc("driver")
        b = armed.kernel.pagemap.alloc("driver")
        armed.table.set_pin_count(a, 1)
        armed.table.pin_counts[a] = 0
        armed.table.pin_counts[b] = 1
        detail = f"frame {a} is in the pinned set with no pins"
        with pytest.raises(PageAccountingError) as info:
            audit_kernel_invariants(armed.kernel)
        assert str(info.value) == detail
        assert oracle_kernel_invariants(armed.kernel) == detail
        armed.next_sample("kernel", detail)

    def test_pin_count_behind_the_pinned_set(self, armed):
        frame = armed.frame(6)                  # mapped, not registered
        armed.table.pin_counts[frame] = 3
        detail = f"frame {frame} has 3 pins but is missing from the " \
                 f"pinned set"
        assert oracle_kernel_invariants(armed.kernel) == detail
        armed.next_sample("kernel", detail)
