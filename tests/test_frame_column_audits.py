"""The frame-side audits as column passes, against the walks they
replaced.

``PageMap.check_free_list`` and ``audit_pin_leaks`` answer the clean
case with one numpy pass over the frame columns and fall back to the
per-entry walk only to build the report.  The walks below are the
previous implementations, kept as oracles: seeded operation sequences
on four backends compare verdicts and messages after every step,
including the corruptions the column passes must see.  Two goldens pin
the free-list bounds check, and two tests show that a violation held
alive does not leave a numpy view pinning the free list.
"""

import os
import random
from collections import Counter
from itertools import chain

import pytest

from repro.core.audit import LeakedPin, audit_kernel_invariants, \
    audit_pin_leaks
from repro.errors import InvariantViolation, OutOfMemory, \
    PageAccountingError
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.via.machine import Machine
from repro.via.tpt import INVALID_FRAME

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


# --------------------------------------------------------------------------
# Oracles: the walks, as they ran before the column passes
# --------------------------------------------------------------------------

def walk_check_free_list(pm):
    """The free-list check read through ``counts.tolist()``."""
    if len(pm._free) != len(pm._free_set):
        seen = set()
        for frame in pm._free:
            if frame in seen:
                raise PageAccountingError(
                    f"frame {frame} on the free list twice")
            seen.add(frame)
        raise PageAccountingError(
            "free list and free set disagree "
            f"({len(pm._free)} vs {len(pm._free_set)})")
    if not any(map(pm.table.counts.tolist().__getitem__, pm._free)):
        return
    counts = pm.table.counts
    for frame in pm._free:
        if counts[frame] != 0:
            raise PageAccountingError(
                f"frame {frame} free with refcount {counts[frame]}")


def walk_explained(agents, kiobufs=()):
    """Registered pages, then mapped kiobuf frames, counted one by one
    straight from the registration records."""
    return Counter(chain(
        (frame for agent in agents
         for reg in agent.registrations.values()
         for frame in reg.region.frames),
        (frame for kio in kiobufs if kio.mapped for frame in kio.frames)))


def walk_unexplained(pagemap, expected):
    """Every frame, pinned set or not: a pin count written behind the
    set is a leak too."""
    pin_counts = pagemap.table.pin_counts
    return [LeakedPin(frame=frame, pin_count=pin_counts[frame],
                      expected=expected.get(frame, 0))
            for frame in range(len(pin_counts))
            if pin_counts[frame] > expected.get(frame, 0)]


def walk_pin_leaks(kernel, *agents, count_kiobufs=False):
    """The pin-leak audit as a walk over the pinned set."""
    leaks = walk_unexplained(kernel.pagemap, walk_explained(agents))
    if leaks and count_kiobufs:
        leaks = walk_unexplained(
            kernel.pagemap,
            walk_explained(agents, kernel.kiobufs.values()))
    return leaks


def verdict(check, *args):
    try:
        check(*args)
    except PageAccountingError as exc:
        return str(exc)
    return None


class Tally:
    """Compares the fast audits with the walks and counts how often
    each found a problem, so a sequence can prove it reached the
    report-building paths."""

    def __init__(self):
        self.free_errors = 0
        self.leak_reports = 0
        self.clean_leak_checks = 0

    def __call__(self, m):
        kernel, agent = m.kernel, m.agent
        pm = kernel.pagemap
        fast = verdict(pm.check_free_list)
        assert fast == verdict(walk_check_free_list, pm)
        self.free_errors += fast is not None
        for count_kiobufs in (False, True):
            leaks = audit_pin_leaks(kernel, agent,
                                    count_kiobufs=count_kiobufs)
            assert leaks == walk_pin_leaks(kernel, agent,
                                           count_kiobufs=count_kiobufs)
            if leaks:
                self.leak_reports += 1
            else:
                self.clean_leak_checks += 1


# --------------------------------------------------------------------------
# Seeded sequences
# --------------------------------------------------------------------------

BUF_PAGES = 6
NUM_FRAMES = 128


def run_sequence(backend, seed, check, steps=120):
    """Drive one machine through ``steps`` seeded operations and the
    corruptions the audits must report, calling ``check(machine)``
    after every step and inside every corruption."""
    m = Machine(num_frames=NUM_FRAMES, swap_slots=2048, backend=backend)
    kernel, agent = m.kernel, m.agent
    pm, table = kernel.pagemap, kernel.pagemap.table
    rng = random.Random(seed)
    tasks = []
    for _ in range(2):
        task = m.spawn()
        bufs = []
        for _ in range(2):
            va = task.mmap(BUF_PAGES)
            task.touch_pages(va, BUF_PAGES)
            bufs.append(va)
        tasks.append((task, m.user_agent(task), bufs))
    kiobufs = []
    leaked = []                 #: (frame, pid) of pins nothing explains
    ops = ["register", "register", "nested", "deregister", "swap",
           "kiobuf", "unmap_kiobuf", "leak_pin", "unleak_pin",
           "unleak_pin", "outside_frame", "pin_corrupt", "count_corrupt",
           "drain"]
    if backend == "odp":
        ops += ["fault", "fault", "invalidate"]
    for _ in range(steps):
        op = rng.choice(ops)
        task, ua, bufs = rng.choice(tasks)
        regs = list(agent.registrations.values())
        if op == "register":
            first = rng.randrange(BUF_PAGES)
            count = rng.randint(1, BUF_PAGES - first)
            ua.register_mem(rng.choice(bufs) + first * PAGE_SIZE,
                            count * PAGE_SIZE)
        elif op == "nested" and agent.registrations_of(task.pid):
            reg = rng.choice(agent.registrations_of(task.pid))
            ua.register_mem(reg.va, reg.nbytes)
        elif op == "deregister" and regs:
            reg = rng.choice(regs)
            owner = next(u for t, u, _ in tasks if t.pid == reg.pid)
            owner.deregister_mem(reg)
        elif op == "swap":
            paging.swap_out(kernel, rng.randint(1, 24))
        elif op == "kiobuf":
            # Mapped, not recorded: a registration halfway built.
            kiobufs.append(kernel.map_user_kiobuf(
                task, rng.choice(bufs), rng.randint(1, 3) * PAGE_SIZE))
        elif op == "unmap_kiobuf" and kiobufs:
            kernel.unmap_kiobuf(kiobufs.pop(rng.randrange(len(kiobufs))))
        elif op == "leak_pin":
            leaked.append((kernel.pin_user_page(
                task, task.vpn_of(rng.choice(bufs))
                + rng.randrange(BUF_PAGES)), task.pid))
        elif op == "unleak_pin" and leaked:
            # Repaired leaks leave the state clean again, so the cached
            # registered-frame array is trusted between them.
            kernel.unpin_user_page(*leaked.pop(rng.randrange(len(leaked))))
        elif op == "outside_frame" and regs:
            frames = rng.choice(regs).region.frames
            index = rng.randrange(len(frames))
            saved = frames[index]
            frames[index] = rng.choice(
                [NUM_FRAMES, NUM_FRAMES + 1000, -2])
            check(m)
            frames[index] = saved
        elif op == "pin_corrupt":
            frame = rng.randrange(pm.reserved_frames, NUM_FRAMES)
            table.pin_counts[frame] += 1       # behind the pinned set
            check(m)
            table.pin_counts[frame] -= 1
            if table.pinned:
                frame = rng.choice(sorted(table.pinned))
                table.pin_counts[frame] += 1
                check(m)
                table.pin_counts[frame] -= 1
        elif op == "count_corrupt" and len(pm._free):
            frame = pm._free[rng.randrange(len(pm._free))]
            table.counts[frame] = 1
            check(m)
            table.counts[frame] = 0
        elif op == "drain":
            held = []
            try:
                while True:
                    held.append(pm.alloc("hog").frame)
            except OutOfMemory:
                pass
            assert pm.free_count == 0
            check(m)
            for frame in held:
                pm.put_page(frame)
        elif op == "fault" and regs:
            reg = rng.choice(regs)
            agent.service_translation_fault(
                reg.handle, (rng.randrange(reg.region.npages),))
        elif op == "invalidate":
            resident = [frame for reg in regs for frame in reg.region.frames
                        if frame != INVALID_FRAME]
            if resident:
                agent.try_evict_frame(rng.choice(resident))
        check(m)
    return m


BACKENDS = ["kiobuf", "mlock",
            # A deregistration clears PG_locked under a still-live
            # nested registration (E4), so later swaps reach its pages.
            pytest.param("pageflags",
                         marks=pytest.mark.san_suppress("swap-registered")),
            "odp"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [SEED, SEED + 1])
def test_column_passes_match_the_walks(backend, seed):
    tally = Tally()
    run_sequence(backend, seed, tally)
    # Every sequence reaches the refcount report; the pinning backends
    # also reach both leak verdicts.
    assert tally.free_errors > 0
    if backend in ("kiobuf", "odp"):
        assert tally.leak_reports > 0
        assert tally.clean_leak_checks > 0


def test_odp_sequence_leaves_invalid_entries():
    seen = []

    def check(m):
        seen.extend(frame for reg in m.agent.registrations.values()
                    for frame in reg.region.frames)

    run_sequence("odp", SEED, check, steps=40)
    assert INVALID_FRAME in seen


# --------------------------------------------------------------------------
# Free-list entries outside the frame table
# --------------------------------------------------------------------------

SMALL = 64


def corrupt_free_list(pm, entry):
    pm._free.append(entry)
    pm._free_set.add(entry)


def repair_free_list(pm, entry):
    pm._free_set.discard(entry)
    assert pm._free.pop() == entry


@pytest.mark.no_posthoc_audit
@pytest.mark.parametrize("entry", [-1, 10_000])
class TestFreeListOutsideTable:
    def test_direct_audit_names_the_entry(self, entry):
        m = Machine(num_frames=SMALL, backend="kiobuf")
        pm = m.kernel.pagemap
        corrupt_free_list(pm, entry)
        # The walk it replaced wraps -1 to the last (free) frame and
        # passes; 10 000 escapes it as a bare IndexError.
        if entry < 0:
            walk_check_free_list(pm)
        else:
            with pytest.raises(IndexError):
                walk_check_free_list(pm)
        with pytest.raises(PageAccountingError) as info:
            audit_kernel_invariants(m.kernel)
        assert str(info.value) == (
            f"frame {entry} on the free list is outside the frame table "
            f"[0, {SMALL})")
        repair_free_list(pm, entry)
        audit_kernel_invariants(m.kernel)

    def test_armed_watchdog_reports_kind_kernel(self, entry):
        m = Machine(num_frames=SMALL, backend="kiobuf")
        wd = m.arm_watchdog(interval_ns=1_000)
        m.kernel.clock.charge(1_000, "test")
        assert wd.checks_run == 1 and wd.violations == 0
        corrupt_free_list(m.kernel.pagemap, entry)
        with pytest.raises(InvariantViolation) as info:
            m.kernel.clock.charge(1_000, "test")
        wd.disarm()
        assert str(info.value) == (
            f"invariant violation (kernel) at cadence: frame {entry} on "
            f"the free list is outside the frame table [0, {SMALL})")
        assert info.value.snapshot["kind"] == "kernel"
        assert isinstance(info.value.__cause__, PageAccountingError)


# --------------------------------------------------------------------------
# A violation held alive leaves the page map usable
# --------------------------------------------------------------------------

def exercise_page_map(pm):
    """alloc, pin, unpin and put_page must all still work."""
    pd = pm.alloc("after")
    pd.pin()
    pd.unpin()
    assert pm.put_page(pd.frame)
    frame = pm.alloc("again").frame
    assert pm.put_page(frame)


@pytest.mark.no_posthoc_audit
def test_held_free_list_violation_leaves_page_map_usable():
    m = Machine(num_frames=SMALL, backend="kiobuf")
    pm = m.kernel.pagemap
    wd = m.arm_watchdog(interval_ns=1_000)
    frame = pm._free[-1]
    pm.table.counts[frame] = 1
    with pytest.raises(InvariantViolation) as info:
        m.kernel.clock.charge(1_000, "test")
    wd.disarm()
    # The violation, its chained cause and their tracebacks stay alive.
    assert isinstance(info.value.__cause__, PageAccountingError)
    pm.table.counts[frame] = 0
    exercise_page_map(pm)
    assert info.value.snapshot["kind"] == "kernel"


@pytest.mark.no_posthoc_audit
def test_held_pin_leak_violation_leaves_page_map_usable():
    m = Machine(num_frames=SMALL, backend="kiobuf")
    pm = m.kernel.pagemap
    wd = m.arm_watchdog(interval_ns=1_000)
    leaked = pm.alloc("leak")
    leaked.pin()
    with pytest.raises(InvariantViolation) as info:
        m.kernel.clock.charge(1_000, "test")
    wd.disarm()
    assert info.value.snapshot["leaks"] == [
        {"frame": leaked.frame, "pin_count": 1, "expected": 0}]
    leaked.unpin()
    assert pm.put_page(leaked.frame)
    exercise_page_map(pm)
    assert info.value.snapshot["kind"] == "pin_leak"


# --------------------------------------------------------------------------
# The agent's cached registered-frame array
# --------------------------------------------------------------------------

def registered_machine(backend):
    """A machine with one resident 4-page registration."""
    m = Machine(num_frames=SMALL, backend=backend)
    task = m.spawn()
    ua = m.user_agent(task)
    va = task.mmap(4)
    task.touch_pages(va, 4)
    reg = ua.register_mem(va, 4 * PAGE_SIZE)
    if backend == "odp":
        m.agent.service_translation_fault(reg.handle, range(4))
    return m, reg


class TestRegisteredFrameCache:
    """Samples between registration changes reuse one array; an
    in-place write to a region's frames must still reach the next
    audit and the next reaper scan."""

    @pytest.mark.parametrize("backend", ["kiobuf", "odp"])
    def test_in_place_frame_write_reaches_the_next_audit(self, backend):
        m, reg = registered_machine(backend)
        assert audit_pin_leaks(m.kernel, m.agent) == []
        assert m.agent.registered_frames() is m.agent.registered_frames()
        frames = reg.region.frames
        moved = frames[1]
        frames[1] = frames[2]
        assert audit_pin_leaks(m.kernel, m.agent) == [
            LeakedPin(frame=moved, pin_count=1, expected=0)]
        frames[1] = moved
        assert audit_pin_leaks(m.kernel, m.agent) == []

    def test_in_place_frame_write_reaches_the_next_reaper_scan(self):
        # ODP pins are not held by a kiobuf, so the reaper's
        # count_kiobufs pass cannot explain the moved frame's pin.
        m, reg = registered_machine("odp")
        reaper = m.start_reaper()
        assert reaper.scan().deferred == 0
        frames = reg.region.frames
        moved = frames[1]
        frames[1] = frames[2]
        assert reaper.scan().deferred == 1
        assert ("pin", moved) in reaper._backoff
        frames[1] = moved
        assert reaper.scan().deferred == 0
        reaper.stop()

    def test_registration_change_rebuilds_the_array(self):
        m, reg = registered_machine("kiobuf")
        before = m.agent.registered_frames()
        assert list(before) == list(reg.region.frames)
        m.agent.deregister_memory(reg.handle)
        assert len(m.agent.registered_frames()) == 0

    def test_plain_list_frames_are_never_cached(self):
        m, reg = registered_machine("kiobuf")
        reg.region.frames = list(reg.region.frames)
        # a registration change drops the cache built over the old list
        task = m.kernel.find_task(reg.pid)
        va = task.mmap(1)
        task.touch_pages(va, 1)
        m.agent.register_memory(task, va, PAGE_SIZE)
        assert m.agent.registered_frames() \
            is not m.agent.registered_frames()
        moved = reg.region.frames[1]
        reg.region.frames[1] = reg.region.frames[2]
        assert audit_pin_leaks(m.kernel, m.agent) == [
            LeakedPin(frame=moved, pin_count=1, expected=0)]
        reg.region.frames[1] = moved
