"""Edge cases of the memory-management substrate: swap exhaustion,
clock-hand wrap, multi-area unmapping, hint growth."""

import pytest

from repro.errors import OutOfMemory
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.kernel import Kernel


class TestSwapExhaustion:
    def test_swap_out_stops_gracefully_when_swap_full(self):
        kernel = Kernel(num_frames=128, swap_slots=4)
        t = kernel.create_task()
        va = t.mmap(16)
        t.touch_pages(va, 16)
        freed = paging.swap_out(kernel, 16)
        assert freed == 4                      # only 4 slots existed
        assert kernel.swap.slots_in_use == kernel.swap.num_slots
        # Further calls free nothing but do not crash.
        assert paging.swap_out(kernel, 4) == 0

    def test_allocation_ooms_when_ram_and_swap_full(self):
        kernel = Kernel(num_frames=64, swap_slots=2, min_free_pages=2)
        t = kernel.create_task()
        usable = kernel.pagemap.free_count
        va = t.mmap(usable + 16)
        with pytest.raises(OutOfMemory):
            t.touch_pages(va, usable + 16)
        # The two swap slots were used in the attempt.
        assert kernel.swap.slots_in_use == kernel.swap.num_slots

    def test_swap_in_frees_slot_for_reuse(self):
        kernel = Kernel(num_frames=128, swap_slots=1)
        t = kernel.create_task()
        va = t.mmap(2)
        t.write(va, b"a")
        t.write(va + PAGE_SIZE, b"b")
        assert paging.swap_out(kernel, 1) == 1
        assert kernel.swap.slots_in_use == kernel.swap.num_slots
        t.read(va, 1)                      # swap-in releases the slot
        assert kernel.swap.num_slots - kernel.swap.slots_in_use == 1
        assert paging.swap_out(kernel, 1) == 1   # reusable


class TestClockHand:
    def test_shrink_mmap_hand_wraps(self, kernel):
        n = kernel.pagemap.num_frames
        kernel._clock_hand = n - 2
        kernel.add_page_cache_page()
        # A full-budget scan must wrap past the end and find the page.
        freed = paging.shrink_mmap(kernel, n)
        assert freed == 1
        assert 0 <= kernel._clock_hand < n

    def test_task_swap_hand_resumes(self, kernel):
        t = kernel.create_task()
        va = t.mmap(6)
        t.touch_pages(va, 6)
        paging.swap_out(kernel, 1)
        first = kernel.trace.of_kind("swap_out")[0]["vpn"]
        paging.swap_out(kernel, 1)
        second = kernel.trace.of_kind("swap_out")[1]["vpn"]
        assert second == first + 1     # walk resumed, not restarted


class TestMunmapAcrossAreas:
    def test_munmap_spanning_partial_area(self, kernel):
        t = kernel.create_task()
        va = t.mmap(10)
        t.touch_pages(va, 10)
        t.munmap(va + 2 * PAGE_SIZE, 5)
        assert t.resident_pages() == 5
        spans = [(a.start_vpn - t.vpn_of(va), a.end_vpn - t.vpn_of(va))
                 for a in t.vmas]
        assert spans == [(0, 2), (7, 10)]
        # Access in the hole faults.
        from repro.errors import SegmentationFault
        with pytest.raises(SegmentationFault):
            t.read(va + 3 * PAGE_SIZE, 1)

    def test_mmap_hint_leaves_guard_gaps(self, kernel):
        t = kernel.create_task()
        a = t.mmap(3)
        b = t.mmap(3)
        # A write running off the end of `a` hits the guard gap.
        from repro.errors import SegmentationFault
        with pytest.raises(SegmentationFault):
            t.write(a + 3 * PAGE_SIZE, b"x")
        assert b > a


class TestReclaimPriorities:
    def test_reclaim_trace_bracketing(self, kernel):
        t = kernel.create_task()
        va = t.mmap(8)
        t.touch_pages(va, 8)
        paging.try_to_free_pages(kernel, 2)
        assert kernel.trace.count("reclaim_start") == 1
        done = kernel.trace.of_kind("reclaim_done")[-1]
        assert done["freed"] >= 2

    def test_try_to_free_gives_up_cleanly(self, kernel):
        # Nothing reclaimable at all.
        assert paging.try_to_free_pages(kernel, 4) == 0
