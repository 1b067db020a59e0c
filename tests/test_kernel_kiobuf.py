"""Tests for the kiobuf subsystem (map_user_kiobuf / unmap_kiobuf)."""

import random

import pytest

from repro.analysis.events import PIN, UNPIN
from repro.errors import KiobufError, PageAccountingError, SegmentationFault
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import fault as fault_mod
from repro.kernel import paging
from repro.kernel.fault import handle_fault
from repro.kernel.flags import VM_WRITE
from repro.kernel.kernel import Kernel
from repro.kernel.kiobuf import (
    Kiobuf, _unwind_pins, map_user_kiobuf, unmap_kiobuf,
)
from repro.sim.clock import CalendarHook
from repro.sim.costs import CostModel
from repro.sim.faults import FaultPlan, crash_if_due


class TestMapUserKiobuf:
    def test_map_faults_pages_in(self, kernel):
        t = kernel.create_task()
        va = t.mmap(4)
        assert t.resident_pages() == 0
        kio = kernel.map_user_kiobuf(t, va, 4 * PAGE_SIZE)
        assert t.resident_pages() == 4
        assert kio.npages == 4
        assert kio.frames == t.physical_pages(va, 4)

    def test_map_takes_ref_and_pin(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        t.touch_pages(va, 2)
        kio = kernel.map_user_kiobuf(t, va, 2 * PAGE_SIZE)
        for frame in kio.frames:
            pd = kernel.pagemap.page(frame)
            assert pd.count == 2       # mapping + kiobuf
            assert pd.pin_count == 1

    def test_unmap_releases_everything(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        kio = kernel.map_user_kiobuf(t, va, 2 * PAGE_SIZE)
        kernel.unmap_kiobuf(kio)
        for frame in kio.frames:
            pd = kernel.pagemap.page(frame)
            assert pd.count == 1 and pd.pin_count == 0
        assert not kio.mapped
        assert kio.kiobuf_id not in kernel.kiobufs

    def test_double_unmap_rejected(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        kio = kernel.map_user_kiobuf(t, va, PAGE_SIZE)
        kernel.unmap_kiobuf(kio)
        with pytest.raises(KiobufError):
            kernel.unmap_kiobuf(kio)

    def test_two_kiobufs_nest(self, kernel):
        """The property mlock lacks: independent mappings stack."""
        t = kernel.create_task()
        va = t.mmap(2)
        k1 = kernel.map_user_kiobuf(t, va, 2 * PAGE_SIZE)
        k2 = kernel.map_user_kiobuf(t, va, 2 * PAGE_SIZE)
        pd = kernel.pagemap.page(k1.frames[0])
        assert pd.pin_count == 2
        kernel.unmap_kiobuf(k1)
        assert pd.pin_count == 1       # still pinned by k2
        kernel.unmap_kiobuf(k2)
        assert pd.pin_count == 0

    def test_partial_page_range(self, kernel):
        t = kernel.create_task()
        va = t.mmap(3)
        # 100 bytes starting mid-page: still pins the whole page.
        kio = kernel.map_user_kiobuf(t, va + 50, 100)
        assert kio.npages == 1
        # spanning a boundary pins both pages
        kio2 = kernel.map_user_kiobuf(t, va + PAGE_SIZE - 10, 20)
        assert kio2.npages == 2

    def test_physical_segments(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        kio = kernel.map_user_kiobuf(t, va + 100, PAGE_SIZE)
        segs = kio.physical_segments()
        assert len(segs) == 2
        assert segs[0][1] == PAGE_SIZE - 100
        assert segs[1][1] == 100
        assert segs[0][0] % PAGE_SIZE == 100
        assert segs[1][0] % PAGE_SIZE == 0
        assert sum(n for _, n in segs) == PAGE_SIZE

    def test_unmapped_range_rejected_and_unwound(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        with pytest.raises(SegmentationFault):
            kernel.map_user_kiobuf(t, va, 4 * PAGE_SIZE)  # runs off the VMA
        # The two good pages were unwound: no stray pins/refs.
        for frame in t.physical_pages(va, 2):
            if frame is not None:
                pd = kernel.pagemap.page(frame)
                assert pd.pin_count == 0 and pd.count == 1

    def test_readonly_vma_rejected_for_write_map(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1, writable=False)
        with pytest.raises(SegmentationFault):
            kernel.map_user_kiobuf(t, va, PAGE_SIZE, write=True)
        # read-only mapping is fine
        kio = kernel.map_user_kiobuf(t, va, PAGE_SIZE, write=False)
        assert kio.npages == 1

    def test_zero_bytes_rejected(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        with pytest.raises(KiobufError):
            kernel.map_user_kiobuf(t, va, 0)

    def test_map_swapped_page_faults_it_back(self, kernel):
        from repro.kernel import paging
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"data")
        paging.swap_out(kernel, 1)
        assert t.resident_pages() == 0
        kio = kernel.map_user_kiobuf(t, va, PAGE_SIZE)
        assert t.resident_pages() == 1
        assert t.read(va, 4) == b"data"
        assert t.major_faults == 1
        kernel.unmap_kiobuf(kio)


class TestFaultLeavesPteAbsent:
    """A fault path that leaves the PTE non-present used to reach
    ``get_page(-1)`` (an ``assert`` guarded it, gone under ``python
    -O``), referencing and pinning the last frame of the machine."""

    @staticmethod
    def _stub_faults(monkeypatch):
        monkeypatch.setattr(fault_mod, "handle_fault",
                            lambda kernel, task, vpn, write: None)

    def test_map_raises_typed_and_unwinds(self, kernel, monkeypatch):
        t = kernel.create_task()
        va = t.mmap(4)
        t.touch_pages(va, 2)              # pages 2 and 3 need a fault
        frames = t.physical_pages(va, 2)
        before = list(kernel.pagemap.table.counts)
        self._stub_faults(monkeypatch)
        with pytest.raises(PageAccountingError,
                           match=rf"pid {t.pid}: vpn {va // PAGE_SIZE + 2} "
                                 r"not present"):
            kernel.map_user_kiobuf(t, va, 4 * PAGE_SIZE)
        assert kernel.pagemap.table.pinned == set()
        assert list(kernel.pagemap.table.counts) == before
        assert all(kernel.pagemap.page(f).pin_count == 0 for f in frames)
        assert not kernel.kiobufs

    def test_pin_user_page_raises_typed(self, kernel, monkeypatch):
        t = kernel.create_task()
        va = t.mmap(1)
        last = kernel.pagemap.num_frames - 1
        self._stub_faults(monkeypatch)
        with pytest.raises(PageAccountingError,
                           match=rf"pid {t.pid}: vpn {va // PAGE_SIZE} "
                                 r"not present"):
            kernel.pin_user_page(t, va // PAGE_SIZE)
        assert kernel.pagemap.table.pinned == set()
        assert kernel.pagemap.page(last).count == 0


def oracle_map(kernel, task, va, nbytes, write=True):
    """The per-page ``map_user_kiobuf`` that the run-charged one
    replaced: two charges per page, a VMA lookup per present page, and
    the reference and pin taken through the page-map helpers."""
    if nbytes <= 0:
        raise KiobufError(f"cannot map {nbytes} bytes")
    kernel.clock.charge(kernel.costs.kiobuf_setup_ns, "kiobuf")
    start_vpn = va // PAGE_SIZE
    end_vpn = (va + nbytes - 1) // PAGE_SIZE + 1
    frames = []
    pinned = []
    try:
        for vpn in range(start_vpn, end_vpn):
            kernel.clock.charge(kernel.costs.pagetable_walk_ns, "kiobuf")
            pte = task.page_table.lookup(vpn)
            if pte is None or not pte.present or (
                    write and not pte.writable and pte.cow):
                handle_fault(kernel, task, vpn, write=write)
                pte = task.page_table.lookup(vpn)
            else:
                vma = task.vmas.find_or_fault(vpn)
                if write and not (vma.flags & VM_WRITE):
                    handle_fault(kernel, task, vpn, write=True)
            assert pte is not None and pte.present
            pd = kernel.pagemap.get_page(pte.frame)
            pd.pin()
            kernel.clock.charge(kernel.costs.page_lock_ns, "kiobuf")
            frames.append(pte.frame)
            pinned.append(pte.frame)
            if kernel.events.active:
                kernel.events.emit(PIN, frames=(pte.frame,), pid=task.pid)
            crash_if_due(kernel.fault_plan, kernel, task, "kiobuf.pin")
    except Exception:
        _unwind_pins(kernel, pinned, task.pid)
        raise
    kio = Kiobuf(kiobuf_id=kernel._next_kiobuf_id, pid=task.pid,
                 va=va, nbytes=nbytes, frames=frames)
    kernel._next_kiobuf_id += 1
    kernel.kiobufs[kio.kiobuf_id] = kio
    kernel.trace.emit("kiobuf_map", kiobuf=kio.kiobuf_id, pid=task.pid,
                      va=va, npages=len(frames))
    return kio


def oracle_unmap(kernel, kio):
    """The per-page ``unmap_kiobuf``: one charge per page."""
    if not kio.mapped:
        raise KiobufError(f"kiobuf {kio.kiobuf_id} already unmapped")
    for frame in kio.frames:
        pd = kernel.pagemap.page(frame)
        pd.unpin()
        kernel.clock.charge(kernel.costs.page_lock_ns, "kiobuf")
        kernel.pagemap.put_page(frame)
    kio.mapped = False
    kernel.kiobufs.pop(kio.kiobuf_id, None)
    if kernel.events.active:
        kernel.events.emit(UNPIN, frames=tuple(kio.frames), pid=kio.pid)
    kernel.trace.emit("kiobuf_unmap", kiobuf=kio.kiobuf_id, pid=kio.pid,
                      npages=kio.npages)


class _HookLog(CalendarHook):
    def __init__(self, clock, log):
        self.clock = clock
        self.log = log

    def scheduled(self, event):
        self.log.append(("scheduled", event.name, event.deadline_ns))

    def pass_begin(self):
        self.log.append(("pass_begin", self.clock.now_ns))

    def fire_begin(self, event):
        self.log.append(("fire_begin", event.name, self.clock.now_ns))

    def fire_end(self, event):
        self.log.append(("fire_end", event.name, self.clock.now_ns))


#: every operation kind a seeded run mixes (each appears at least once)
_OPS = ("map", "map_ro", "unmap", "frozen", "dispatch", "hole",
        "stray", "readonly", "reprotect", "crash", "munmap_unmap")
#: the main region: 40 pages in several VMAs, then a guard hole and a
#: second 6-page area
_REGION = 40


class TestRunChargedOracle:
    """``map_user_kiobuf``/``unmap_kiobuf`` charge runs of pages at once
    and write the frame columns directly.  On seeded runs mixing
    demand-zero, swapped and CoW pages, ranges across several VMAs,
    holes and read-only areas, crashes at a pin, frozen clocks, calls
    made inside dispatch and calendar callbacks that read the columns,
    charge, schedule, cancel, re-protect areas and map nested kiobufs
    mid-range, they must agree with the per-page oracle on every
    observable."""

    @staticmethod
    def _build(seed, walk_ns, lock_ns, hub):
        costs = CostModel().scaled(
            pagetable_walk_ns=walk_ns, page_lock_ns=lock_ns,
            minor_fault_ns=500, major_fault_base_ns=900,
            disk_io_page_ns=2_500)
        k = Kernel(num_frames=224, swap_slots=512, costs=costs)
        rng = random.Random(seed)
        task = k.create_task(name="user")
        va = task.mmap(_REGION)
        second = task.mmap(6)
        base = va // PAGE_SIZE
        for i in rng.sample(range(_REGION), 14):
            task.touch_pages(va + i * PAGE_SIZE, 1)
        k.fork_task(task)                       # those 14 turn CoW
        for i in rng.sample(range(_REGION), 12):
            task.touch_pages(va + i * PAGE_SIZE, 1)
        paging.swap_out(k, 6)
        for vpn in sorted(rng.sample(range(base + 1, base + _REGION), 5)):
            task.vmas.split_at(vpn)
        ro = base + rng.randrange(8, _REGION - 4)
        task.vmas.split_range(ro, ro + 2)
        task.vmas.set_flags_range(ro, ro + 2, clear_bits=VM_WRITE)
        hub_log = []
        if hub:
            k.events.subscribe(lambda e: hub_log.append(
                (e.ts_ns, e.kind, dict(e.detail))))
        return k, task, va, second, ro, hub_log

    @staticmethod
    def _run(mapper, unmapper, seed, walk_ns, lock_ns, hub):
        k, task, va, second, ro, hub_log = TestRunChargedOracle._build(
            seed, walk_ns, lock_ns, hub)
        clock = k.clock
        table = k.pagemap.table
        rng = random.Random(seed * 7919 + 1)
        hooks = []
        clock.add_calendar_hook(_HookLog(clock, hooks))
        step = max(walk_ns + lock_ns, 1)
        base = va // PAGE_SIZE
        live = []
        fired = []
        results = []
        state = {"in_op": "", "range": (base, base + _REGION)}

        def record(op, fn, at=va, nbytes=_REGION * PAGE_SIZE):
            state["range"] = (at // PAGE_SIZE,
                              (at + nbytes - 1) // PAGE_SIZE + 1)
            state["in_op"] = op
            try:
                kio = fn()
            except Exception as exc:
                results.append((op, type(exc).__name__, str(exc)))
            else:
                if kio is not None:
                    live.append(kio)
                    results.append((op, kio.kiobuf_id, list(kio.frames)))
            finally:
                state["in_op"] = ""
            results.append((op, clock.now_ns))

        def callback(name):
            def fn(now):
                probe = rng.sample(range(k.pagemap.num_frames), 4)
                fired.append((name, state["in_op"], now, clock.now_ns,
                              [(table.counts[f], table.pin_counts[f])
                               for f in probe], len(table.pinned)))
                roll = rng.random()
                if roll < 0.3:
                    clock.schedule_after(rng.randrange(0, 30 * step),
                                         callback(name + "+"),
                                         name=name + "+")
                elif roll < 0.4:
                    clock.schedule_after(0, callback(name + "0"),
                                         name=name + "0")
                elif roll < 0.55:
                    start = rng.randrange(_REGION - 4)
                    n = rng.randrange(1, 4)
                    try:
                        live.append(mapper(k, task,
                                           va + start * PAGE_SIZE,
                                           n * PAGE_SIZE,
                                           write=False))
                    except Exception as exc:
                        fired.append(("nested", type(exc).__name__))
                elif roll < 0.65:
                    clock.charge(rng.randrange(1, 3 * step), "cb")
                elif roll < 0.75:
                    clock.cancel(clock.schedule_after(
                        rng.randrange(0, 20 * step), callback("dead"),
                        name="dead"))
                elif roll < 0.9:
                    # Re-protect a page of the range in flight, in a new
                    # VMA split off the old one: the VMA cached for the
                    # pages ahead must not outlive a callback.
                    lo, hi = state["range"]
                    vpn = rng.randrange(lo, hi)
                    task.vmas.split_range(vpn, vpn + 1)
                    bits = {"set_bits" if rng.random() < 0.3
                            else "clear_bits": VM_WRITE}
                    task.vmas.set_flags_range(vpn, vpn + 1, **bits)
            return fn

        def arm(tag, npages, unmap=False):
            # Unmaps charge a lock per page; maps a setup, then a walk
            # and a lock per page.
            first, per, ends = ((0, lock_ns, (lock_ns,)) if unmap else
                                (k.costs.kiobuf_setup_ns, step,
                                 (walk_ns, step)))
            for j in range(rng.randrange(1, 8)):
                if rng.random() < 0.5:
                    # exactly where a charge ends, if no fault came first
                    offset = (first + rng.randrange(npages) * per
                              + rng.choice(ends))
                else:
                    offset = rng.randrange(0, (npages + 2) * step * 2)
                event = clock.schedule_after(offset,
                                             callback(f"{tag}.{j}"),
                                             name=f"{tag}.{j}")
                if rng.random() < 0.2:
                    clock.cancel(event)           # a tombstone mid-range

        def a_range(max_pages=12):
            n = rng.randrange(1, max_pages + 1)
            start = rng.randrange(_REGION - n + 1)
            return va + start * PAGE_SIZE + rng.randrange(64), \
                n * PAGE_SIZE - rng.randrange(64)

        ops = list(_OPS) + rng.choices(_OPS, k=14)
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            tag = f"{op}{i}"
            if op in ("map", "map_ro", "frozen", "dispatch"):
                at, nbytes = a_range()
                write = op != "map_ro"
                arm(tag, nbytes // PAGE_SIZE + 1)
                if op == "frozen":
                    with clock.frozen():
                        record(op, lambda: mapper(k, task, at, nbytes,
                                                  write=write), at, nbytes)
                elif op == "dispatch":
                    clock.schedule_after(0, lambda now: record(
                        op, lambda: mapper(k, task, at, nbytes,
                                           write=write), at, nbytes),
                        name=tag)
                    clock.charge(1, "cb")
                else:
                    record(op, lambda: mapper(k, task, at, nbytes,
                                              write=write), at, nbytes)
            elif op == "unmap":
                if not live:
                    continue
                kio = live.pop(rng.randrange(len(live)))
                arm(tag, kio.npages, unmap=True)
                record(op, lambda: unmapper(k, kio))
            elif op == "hole":
                # Runs off the end of the region into the guard page.
                n = rng.randrange(2, 8)
                arm(tag, n)
                at = va + (_REGION - n + 1) * PAGE_SIZE
                record(op, lambda: mapper(k, task, at, n * PAGE_SIZE),
                       at, n * PAGE_SIZE)
            elif op == "stray":
                # A present PTE whose VMA is gone: only the VMA lookup
                # notices, after the page's walk was charged.
                start = rng.randrange(_REGION - 8)
                at = va + start * PAGE_SIZE
                task.read(at, 8 * PAGE_SIZE)          # all present
                vpn = base + start + rng.randrange(1, 8)
                (area,) = task.vmas.remove_range(vpn, vpn + 1)
                arm(tag, 8)
                record(op, lambda: mapper(k, task, at, 8 * PAGE_SIZE),
                       at, 8 * PAGE_SIZE)
                task.vmas.insert(area)
            elif op == "readonly":
                at = va + max(0, ro - base - rng.randrange(1, 6)) * PAGE_SIZE
                arm(tag, 8)
                record(op, lambda: mapper(k, task, at, 8 * PAGE_SIZE),
                       at, 8 * PAGE_SIZE)
            elif op == "reprotect":
                # Eight present writable pages in one VMA; a callback at
                # the end of page i's walk or lock charge splits page j
                # off read-only.  The VMA cached at page 0 is stale from
                # then on.
                area = task.mmap(8)
                task.read(area, 8 * PAGE_SIZE)
                i = rng.randrange(7)
                j = area // PAGE_SIZE + rng.randrange(i + 1, 8)

                def reprotect(now, j=j):
                    fired.append(("reprotect", j, now))
                    task.vmas.split_range(j, j + 1)
                    task.vmas.set_flags_range(j, j + 1, clear_bits=VM_WRITE)
                clock.schedule_after(k.costs.kiobuf_setup_ns + i * step
                                     + rng.choice((walk_ns, step)),
                                     reprotect, name=tag)
                record(op, lambda: mapper(k, task, area, 8 * PAGE_SIZE),
                       area, 8 * PAGE_SIZE)
            elif op == "crash":
                victim = k.create_task(name=f"victim{i}")
                vva = victim.mmap(10)
                victim.touch_pages(vva, rng.randrange(10))
                # A plan armed for another pid keeps the crash point
                # live on every page until a callback arms this one.
                k.fault_plan = FaultPlan(crash_point="kiobuf.pin",
                                         crash_pid=10_000)
                arm(tag, 10)
                clock.schedule_after(
                    rng.randrange(0, 10 * step),
                    lambda now, pid=victim.pid: setattr(
                        k, "fault_plan", FaultPlan(crash_point="kiobuf.pin",
                                                   crash_pid=pid)),
                    name=tag)
                record(op, lambda: mapper(k, victim, vva, 10 * PAGE_SIZE),
                       vva, 10 * PAGE_SIZE)
                k.fault_plan = None
            elif op == "munmap_unmap":
                area = task.mmap(8)
                task.touch_pages(area, rng.randrange(9))
                arm(tag, 8)
                record(op, lambda: mapper(k, task, area, 8 * PAGE_SIZE),
                       area, 8 * PAGE_SIZE)
                kio = live.pop()
                # The task drops part of the area, so the unmap frees
                # those frames and only puts the rest.
                gone = rng.randrange(1, 8)
                task.munmap(area + rng.randrange(9 - gone) * PAGE_SIZE, gone)
                arm(tag + "u", 8, unmap=True)
                record(op, lambda: unmapper(k, kio))
            clock.charge(rng.randrange(1, 4 * step), "gap")
        record("second", lambda: mapper(k, task, second, 6 * PAGE_SIZE))
        for kio in live:
            if kio.mapped:
                record("drain", lambda: unmapper(k, kio))
        return {"results": results,
                "counts": list(table.counts),
                "pin_counts": list(table.pin_counts),
                "pinned": sorted(table.pinned),
                "free": list(k.pagemap._free),
                "now_ns": clock.now_ns,
                "categories": clock.categories(),
                "trace": [(e.ts_ns, e.kind, e.detail) for e in k.trace],
                "hub": hub_log, "fired": fired, "hooks": hooks}

    @pytest.mark.parametrize("hub", [False, True])
    @pytest.mark.parametrize("walk_ns,lock_ns",
                             [(120, 60), (1, 2), (0, 0), (7_000, 3_000)])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_page_oracle(self, seed, walk_ns, lock_ns, hub):
        got = self._run(map_user_kiobuf, unmap_kiobuf, seed, walk_ns,
                        lock_ns, hub)
        want = self._run(oracle_map, oracle_unmap, seed, walk_ns, lock_ns,
                         hub)
        for key in want:
            assert got[key] == want[key], key
        # The runs reached every path the rule has to get right.
        kinds = {kind for _, kind, _ in want["trace"]}
        assert {"kiobuf_map", "kiobuf_unmap", "minor_fault", "swap_in",
                "cow_copy", "crash_point", "frame_freed"} <= kinds
        errors = {r[1] for r in want["results"] if len(r) == 3
                  and isinstance(r[1], str)}
        assert {"SegmentationFault", "ProcessKilled"} <= errors
        assert any(in_op for _, in_op, *_ in want["fired"]
                   if isinstance(in_op, str))
        assert bool(want["hub"]) == hub
