"""Tests for the reclaim path — the skip rules the paper's whole argument
rests on (Sec. 2.2)."""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.errors import OutOfMemory
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.flags import (
    PG_LOCKED, PG_PAGECACHE, PG_REFERENCED, PG_RESERVED, VM_LOCKED,
)
from repro.kernel.kernel import Kernel
from repro.sim.clock import CalendarHook
from repro.sim.costs import CostModel


def fill_task(kernel, npages: int, name: str = "t"):
    t = kernel.create_task(name=name)
    va = t.mmap(npages)
    t.touch_pages(va, npages)
    return t, va


class TestSwapOutSkipRules:
    def test_steals_plain_pages(self, kernel):
        t, va = fill_task(kernel, 8)
        freed = paging.swap_out(kernel, 4)
        assert freed == 4
        assert kernel.trace.count("swap_out") == 4
        assert kernel.swap.writes == 4

    def test_vm_locked_vma_skipped(self, kernel):
        t, va = fill_task(kernel, 8)
        kernel.do_mlock(t, va, 8 * PAGE_SIZE)
        assert paging.swap_out(kernel, 4) == 0
        skips = kernel.trace.of_kind("swap_skip")
        assert any(e["reason"] == "VM_LOCKED" for e in skips)
        assert t.resident_pages() == 8

    def test_pg_locked_page_skipped(self, kernel):
        t, va = fill_task(kernel, 4)
        for frame in t.physical_pages(va, 4):
            kernel.lock_page(frame)
        assert paging.swap_out(kernel, 2) == 0
        assert any(e["reason"] == "PG_locked"
                   for e in kernel.trace.of_kind("swap_skip"))

    def test_pinned_page_skipped(self, kernel):
        """The paper's proposal hook: kiobuf-pinned pages are immune."""
        t, va = fill_task(kernel, 4)
        kio = kernel.map_user_kiobuf(t, va, 4 * PAGE_SIZE)
        assert paging.swap_out(kernel, 2) == 0
        assert any(e["reason"] == "pinned"
                   for e in kernel.trace.of_kind("swap_skip"))
        kernel.unmap_kiobuf(kio)
        assert paging.swap_out(kernel, 2) == 2

    def test_elevated_refcount_does_NOT_protect(self, kernel):
        """The central negative result (Sec. 3.1): a bare get_page
        reference does not stop the steal — the page is unmapped, written
        to swap, and the frame is orphaned."""
        t, va = fill_task(kernel, 1)
        frame = t.physical_pages(va, 1)[0]
        kernel.pagemap.get_page(frame)          # driver-style extra ref
        freed = paging.swap_out(kernel, 1)
        # Unmapped but NOT freed: the steal produced no usable frame.
        assert freed == 0
        ev = kernel.trace.of_kind("swap_out")[-1]
        assert ev["frame"] == frame
        assert ev["freed"] is False
        pte = t.page_table.lookup(t.vpn_of(va))
        assert pte.swapped
        table = kernel.pagemap.table
        assert table.counts[frame] == 1 and table.tags[frame] == "orphan"
        assert kernel.pagemap.orphan_count() == 1

    def test_cow_shared_page_skipped(self, kernel):
        t, va = fill_task(kernel, 1)
        kernel.pagemap.table.cow_shares[t.physical_pages(va, 1)[0]] = 1
        assert paging.swap_out(kernel, 1) == 0
        assert any(e["reason"] == "cow_shared"
                   for e in kernel.trace.of_kind("swap_skip"))


class TestVictimSelection:
    def test_pressure_spread_across_tasks(self, kernel):
        """swap_cnt heuristic: even a small task eventually gets chosen —
        why locktest's pages were stolen despite the huge allocator."""
        small, _ = fill_task(kernel, 4, "small")
        big, _ = fill_task(kernel, 64, "big")
        # The swap_cnt heuristic drains the biggest task first, but under
        # sustained pressure the counters equalise and the small task is
        # chosen too.
        paging.swap_out(kernel, 66)
        victims = {e["pid"] for e in kernel.trace.of_kind("swap_out")}
        assert small.pid in victims and big.pid in victims

    def test_no_tasks_no_steal(self, kernel):
        assert paging.swap_out(kernel, 4) == 0


class TestShrinkMmap:
    def test_reclaims_unreferenced_cache_pages(self, kernel):
        frames = [kernel.add_page_cache_page() for _ in range(4)]
        freed = paging.shrink_mmap(kernel, kernel.pagemap.num_frames)
        assert freed == 4
        assert kernel.page_cache == set()
        for frame in frames:
            assert kernel.pagemap.table.counts[frame] == 0

    def test_second_chance_for_referenced_pages(self, kernel):
        frame = kernel.add_page_cache_page()
        kernel.pagemap.table.flags[frame] |= PG_REFERENCED
        assert paging.shrink_mmap(kernel, kernel.pagemap.num_frames) == 0
        # Bit cleared: second chance spent.
        assert not kernel.pagemap.table.flags[frame] & PG_REFERENCED
        assert paging.shrink_mmap(kernel, kernel.pagemap.num_frames) == 1

    def test_locked_cache_page_untouched(self, kernel):
        frame = kernel.add_page_cache_page()
        kernel.lock_page(frame)
        for _ in range(3):
            assert paging.shrink_mmap(kernel,
                                      kernel.pagemap.num_frames) == 0
        assert kernel.pagemap.table.flags[frame] & PG_PAGECACHE

    def test_extra_ref_cache_page_skipped(self, kernel):
        kernel.pagemap.get_page(kernel.add_page_cache_page())
        assert paging.shrink_mmap(kernel, kernel.pagemap.num_frames) == 0

    def test_does_not_touch_user_pages(self, kernel):
        t, va = fill_task(kernel, 4)
        assert paging.shrink_mmap(kernel, kernel.pagemap.num_frames) == 0
        assert t.resident_pages() == 4


class TestTryToFreePages:
    def test_prefers_cache_then_swaps(self, kernel):
        for _ in range(4):
            kernel.add_page_cache_page()
        t, _ = fill_task(kernel, 8)
        freed = paging.try_to_free_pages(kernel, 6)
        assert freed >= 6
        assert kernel.trace.count("cache_reclaim") == 4
        assert kernel.trace.count("swap_out") >= 2

    def test_allocation_triggers_reclaim(self, tiny_kernel):
        """get_free_pages → try_to_free_pages: exhaust RAM, allocation
        still succeeds by swapping someone out."""
        k = tiny_kernel
        t, _ = fill_task(k, k.pagemap.free_count - 2)
        assert k.pagemap.free_count <= k.min_free_pages + 2
        t2 = k.create_task(name="grower")
        va2 = t2.mmap(16)
        t2.touch_pages(va2, 16)   # must trigger reclaim, not OOM
        assert k.trace.count("swap_out") > 0
        assert t2.resident_pages() == 16

    def test_true_oom_when_everything_locked(self, tiny_kernel):
        """When every allocated page is VM_LOCKED, reclaim can free
        nothing and allocation genuinely fails."""
        k = tiny_kernel
        t = k.create_task()
        npages = k.pagemap.free_count - 2
        va = t.mmap(npages)
        t.touch_pages(va, npages)
        k.do_mlock(t, va, npages * PAGE_SIZE)
        t2 = k.create_task()
        va2 = t2.mmap(32)
        with pytest.raises(OutOfMemory):
            # mlock faults pages in *and* locks them, so t2's own pages
            # are not stealable either: a true OOM.
            k.do_mlock(t2, va2, 32 * PAGE_SIZE)


class _EvictNotifier:
    """A kernel notifier that answers only ``"evict"`` invalidations,
    handing each page's frame to ``on_frame``."""

    def __init__(self, on_frame):
        self.on_frame = on_frame

    def invalidate_range(self, task, start_vpn, end_vpn, cause):
        if cause == "evict":
            for vpn in range(start_vpn, end_vpn):
                self.on_frame(task.page_table.lookup(vpn).frame)

    def release(self, task, phase):
        pass


class TestPinEvictionHooks:
    """Regression for the per-frame eviction invalidation: reclaim used
    to skip *every* pinned frame unconditionally; now it tells the
    kernel's notifiers first, and only skips when no pin owner releases
    its pins."""

    def test_pinned_skip_without_hooks(self, kernel):
        t, va = fill_task(kernel, 4)
        for vpn in range(t.vpn_of(va), t.vpn_of(va) + 4):
            kernel.pin_user_page(t, vpn)
        assert kernel.notifiers == []
        assert paging.swap_out(kernel, 2) == 0
        assert any(e["reason"] == "pinned"
                   for e in kernel.trace.of_kind("swap_skip"))
        assert t.resident_pages() == 4
        for frame in t.physical_pages(va, 4):
            kernel.unpin_user_page(frame, t.pid)

    def test_declining_hook_preserves_skip(self, kernel):
        t, va = fill_task(kernel, 2)
        frames = t.physical_pages(va, 2)
        for vpn in range(t.vpn_of(va), t.vpn_of(va) + 2):
            kernel.pin_user_page(t, vpn)
        asked = []
        kernel.notifiers.append(_EvictNotifier(asked.append))
        assert paging.swap_out(kernel, 2) == 0
        assert set(asked) == set(frames)     # consulted, not bypassed
        assert t.resident_pages() == 2
        for frame in frames:
            kernel.unpin_user_page(frame, t.pid)

    def test_releasing_hook_makes_frame_stealable(self, kernel):
        kernel.obs.enable()
        t, va = fill_task(kernel, 2)
        frames = t.physical_pages(va, 2)
        for vpn in range(t.vpn_of(va), t.vpn_of(va) + 2):
            kernel.pin_user_page(t, vpn)

        def release(frame):
            if frame in frames:
                kernel.unpin_user_page(frame, t.pid)

        kernel.notifiers.append(_EvictNotifier(release))
        assert paging.swap_out(kernel, 2) == 2
        assert t.resident_pages() == 0
        assert kernel.obs.counter(
            "kernel.paging.swap_evictions.odp").value == 2


class TestReclaimGolden:
    """A seeded pressure run whose reclaim decisions are pinned exactly:
    the victim/page sequence, the skip reasons, and the simulated time.
    Host-side speed-ups of the reclaim path must leave all three
    bit-identical."""

    #: first steals, for a readable diff when the sequence moves
    FIRST_STEALS = [(5, 4096, 54, 0), (5, 4097, 55, 1), (5, 4098, 56, 2),
                    (5, 4099, 57, 3), (5, 4100, 58, 4), (5, 4101, 59, 5)]
    STEALS_SHA256 = ("0c3c66921ca5bad345e3976431f696a8"
                     "8c97e134f0f03d3d0e10c379c88762ea")

    @staticmethod
    def _pressure_run():
        k = Kernel(num_frames=128, swap_slots=1024)
        for i in range(6):
            frame = k.add_page_cache_page()
            if i % 2:
                k.pagemap.table.flags[frame] |= PG_REFERENCED
        pinned = k.create_task(name="pinned")
        va_p = pinned.mmap(12)
        pinned.touch_pages(va_p, 12)
        kio = k.map_user_kiobuf(pinned, va_p + 4 * PAGE_SIZE, 4 * PAGE_SIZE)
        locked = k.create_task(name="locked")
        va_l = locked.mmap(12)
        locked.touch_pages(va_l, 12)
        k.do_mlock(locked, va_l + 2 * PAGE_SIZE, 6 * PAGE_SIZE)
        plain = k.create_task(name="plain")
        va_a = plain.mmap(20)
        plain.touch_pages(va_a, 20)
        io_frame = plain.physical_pages(va_a + 15 * PAGE_SIZE, 1)[0]
        k.lock_page(io_frame)
        k.fork_task(plain, name="child")
        hog = k.create_task(name="hog")
        va_h = hog.mmap(96)
        for rnd in range(3):
            hog.touch_pages(va_h, 96, fill=bytes([rnd + 1]))
            pinned.touch_pages(va_p, 12, fill=bytes([rnd + 7]))
            plain.touch_pages(va_a + (rnd % 2) * 10 * PAGE_SIZE, 10)
            locked.touch_pages(va_l, 12)
        k.unmap_kiobuf(kio)
        return k

    def test_reclaim_decisions_and_charges_pinned(self):
        k = self._pressure_run()
        steals = [(e["pid"], e["vpn"], e["frame"], e["slot"])
                  for e in k.trace.of_kind("swap_out")]
        assert len(steals) == 270
        assert steals[:6] == self.FIRST_STEALS
        assert hashlib.sha256(
            repr(steals).encode()).hexdigest() == self.STEALS_SHA256
        skips = Counter(e["reason"] for e in k.trace.of_kind("swap_skip"))
        assert skips == {"PG_locked": 4, "VM_LOCKED": 18,
                         "cow_shared": 66, "pinned": 12}
        assert k.clock.now_ns == 1_996_271_332
        assert k.clock.categories()["reclaim"] == 272_850


def oracle_shrink_mmap(kernel, scan_budget):
    """The per-frame scan that ``paging.shrink_mmap`` batches: one
    charge per frame, the columns read after it."""
    pagemap = kernel.pagemap
    counts = pagemap.table.counts
    flags = pagemap.table.flags
    freed = 0
    scanned = 0
    n = pagemap.num_frames
    while scanned < scan_budget:
        frame = kernel._clock_hand
        kernel._clock_hand = (kernel._clock_hand + 1) % n
        scanned += 1
        kernel.clock.charge(kernel.costs.reclaim_scan_page_ns, "reclaim")
        count = counts[frame]
        if count == 0 or flags[frame] & (PG_LOCKED | PG_RESERVED):
            continue
        if count != 1:
            continue
        if not flags[frame] & PG_PAGECACHE:
            continue
        if flags[frame] & PG_REFERENCED:
            flags[frame] &= ~PG_REFERENCED
            continue
        kernel.page_cache.discard(frame)
        flags[frame] &= ~PG_PAGECACHE
        pagemap.put_page(frame)
        kernel.trace.emit("cache_reclaim", frame=frame)
        freed += 1
    return freed


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


class TestShrinkMmapRuns:
    """``shrink_mmap`` charges a run of frames without PG_PAGECACHE at
    once.  On seeded frame tables, with calendar callbacks that fire
    mid-scan, change the columns ahead of the hand and schedule more
    events, it must agree with the per-frame oracle on every
    observable."""

    @staticmethod
    def _build(seed, scan_ns):
        rng = random.Random(seed)
        costs = replace(CostModel(), reclaim_scan_page_ns=scan_ns)
        k = Kernel(num_frames=160, swap_slots=256, min_free_pages=2,
                   costs=costs)
        task = k.create_task(name="user")
        va = task.mmap(40)
        touched = 0
        cache = []
        while len(cache) < 48 or touched < 40:
            if touched < 40 and rng.random() < 0.45:
                task.touch_pages(va + touched * PAGE_SIZE, 1)
                touched += 1
                continue
            frame = k.add_page_cache_page()
            cache.append(frame)
            roll = rng.random()
            if roll < 0.2:
                k.pagemap.table.flags[frame] |= PG_REFERENCED
            elif roll < 0.3:
                k.lock_page(frame)
            elif roll < 0.36:
                k.pagemap.table.flags[frame] |= PG_RESERVED
            elif roll < 0.45:
                k.pagemap.get_page(frame)
        for frame in rng.sample(cache, 10):     # holes: free frames
            if k.pagemap.table.flags[frame] & (PG_LOCKED | PG_RESERVED):
                continue
            if k.pagemap.table.counts[frame] != 1:
                continue
            k.page_cache.discard(frame)
            k.pagemap.table.flags[frame] &= ~PG_PAGECACHE
            k.pagemap.put_page(frame)
        return k

    @staticmethod
    def _run(shrink, seed, scan_ns):
        k = TestShrinkMmapRuns._build(seed, scan_ns)
        clock = k.clock
        rng = random.Random(seed * 7919 + 1)
        hooks = []
        k.clock.add_calendar_hook(_HookLog(clock, hooks))
        fired = []
        flags = k.pagemap.table.flags
        n = k.pagemap.num_frames
        step = max(scan_ns, 1)

        def callback(name):
            def fn(now):
                fired.append((name, now, clock.now_ns, k._clock_hand))
                # from the frame being charged (just behind the hand) on
                ahead = [(k._clock_hand + d) % n
                         for d in [-1] + rng.sample(range(48), 5)]
                for frame in ahead[:3]:
                    # user frames stay out of the page cache
                    if k.pagemap.table.mappings[frame] is None:
                        flags[frame] ^= PG_PAGECACHE
                for frame in ahead[3:]:
                    flags[frame] |= PG_REFERENCED
                roll = rng.random()
                if roll < 0.4:
                    clock.schedule_after(rng.randrange(0, 40 * step),
                                         callback(name + "+"), name=name + "+")
                elif roll < 0.5:
                    clock.schedule_after(0, callback(name + "0"),
                                         name=name + "0")
                elif roll < 0.6:
                    fired.append(("nested", shrink(k, rng.randrange(1, 30))))
                elif roll < 0.7:
                    clock.charge(rng.randrange(1, 3 * step), "cb")
                elif roll < 0.8:
                    clock.cancel(clock.schedule_after(
                        rng.randrange(0, 20 * step), callback("dead"),
                        name="dead"))
            return fn

        results = []
        for i, budget in enumerate((n // 6, n // 3, n, 2 * n + 17, 5)):
            k._clock_hand = rng.randrange(n)
            for j in range(rng.randrange(2, 7)):
                offset = rng.randrange(0, budget * step)
                if rng.random() < 0.3:
                    offset -= offset % step       # exactly on a charge
                event = clock.schedule_after(offset, callback(f"e{i}.{j}"),
                                             name=f"e{i}.{j}")
                if rng.random() < 0.2:
                    clock.cancel(event)           # a tombstone mid-scan
            if i == 4:
                with clock.frozen():
                    results.append(shrink(k, budget))
            else:
                results.append(shrink(k, budget))
            results.append((k._clock_hand, clock.now_ns))
        trace = [(e.ts_ns, e.kind, e.detail) for e in k.trace]
        summary = Counter(tag or "free" for tag in k.pagemap.table.tags)
        return {"results": results, "flags": list(flags),
                "counts": list(k.pagemap.table.counts),
                "page_cache": sorted(k.page_cache),
                "categories": clock.categories(), "summary": summary,
                "trace": trace, "fired": fired, "hooks": hooks}

    @pytest.mark.parametrize("scan_ns", [150, 1, 0])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_frame_oracle(self, seed, scan_ns):
        got = self._run(paging.shrink_mmap, seed, scan_ns)
        want = self._run(oracle_shrink_mmap, seed, scan_ns)
        for key in want:
            assert got[key] == want[key], key
        if scan_ns:
            assert want["fired"]                  # callbacks ran mid-scan
        assert any(kind == "cache_reclaim" for _, kind, _ in want["trace"])
