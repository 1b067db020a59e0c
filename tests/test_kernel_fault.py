"""Tests for the page-fault handler (demand paging, swap-in, COW)."""

import pytest

from repro.errors import SegmentationFault
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.fault import handle_fault


class TestDemandPaging:
    def test_mmap_allocates_nothing(self, kernel):
        t = kernel.create_task()
        free_before = kernel.pagemap.free_count
        t.mmap(16)
        assert kernel.pagemap.free_count == free_before

    def test_touch_allocates_distinct_frames(self, kernel):
        """Step 1 of the paper's experiment: touching every page maps
        each virtual page to a distinct physical page."""
        t = kernel.create_task()
        va = t.mmap(8)
        t.touch_pages(va, 8)
        frames = t.physical_pages(va, 8)
        assert None not in frames
        assert len(set(frames)) == 8
        assert t.minor_faults == 8

    def test_demand_zero_page_is_zero(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        assert t.read(va, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_fault_outside_vma_segfaults(self, kernel):
        t = kernel.create_task()
        with pytest.raises(SegmentationFault):
            handle_fault(kernel, t, 0xDEAD, write=False)

    def test_write_to_readonly_vma_segfaults(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1, writable=False)
        with pytest.raises(SegmentationFault):
            t.write(va, b"x")
        # reads are fine
        assert t.read(va, 4) == bytes(4)

    def test_spurious_fault_on_present_page(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"a")
        frame = t.physical_pages(va, 1)[0]
        assert handle_fault(kernel, t, t.vpn_of(va), write=True) == frame


class TestSwapInPath:
    def _swap_out_one(self, kernel, task, va):
        """Force the single page at va out to swap."""
        from repro.kernel import paging
        vpn = task.vpn_of(va)
        # Keep stealing until this vpn is gone (other pages may go first).
        for _ in range(1000):
            pte = task.page_table.lookup(vpn)
            if pte is not None and not pte.present:
                return
            if paging.swap_out(kernel, 1) == 0:
                break
        pte = task.page_table.lookup(vpn)
        assert pte is not None and pte.swapped, "could not swap target page"

    def test_swap_in_restores_contents_into_new_frame(self, kernel):
        t = kernel.create_task()
        va = t.mmap(4)
        t.write(va, b"persist me")
        old_frame = t.physical_pages(va, 1)[0]
        self._swap_out_one(kernel, t, va)
        assert kernel.trace.count("swap_out") >= 1
        # Touch it again: major fault reads it back.
        data = t.read(va, 10)
        assert data == b"persist me"
        assert t.major_faults >= 1
        new_frame = t.physical_pages(va, 1)[0]
        assert new_frame is not None
        # The frame was freed in between, so it may or may not be reused;
        # what matters is the data integrity verified above.
        assert isinstance(old_frame, int)

    def test_swap_in_frees_swap_slot(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"z")
        self._swap_out_one(kernel, t, va)
        used = kernel.swap.slots_in_use
        t.read(va, 1)
        assert kernel.swap.slots_in_use == used - 1


class TestCOW:
    def _share_cow(self, kernel, src, dst, src_va, dst_va):
        """Manually establish a COW share of one frame between tasks
        (the simulator has no fork; tests build shares directly)."""
        pte = src.page_table.lookup(src.vpn_of(src_va))
        kernel.pagemap.get_page(pte.frame)
        kernel.pagemap.table.cow_shares[pte.frame] = 2
        pte.writable = False
        pte.cow = True
        dpte = dst.page_table.set_mapping(dst.vpn_of(dst_va), pte.frame,
                                          writable=False)
        dpte.cow = True

    def test_cow_break_copies(self, kernel):
        a = kernel.create_task()
        b = kernel.create_task()
        va_a = a.mmap(1)
        va_b = b.mmap(1)
        a.write(va_a, b"shared")
        b.touch_pages(va_b, 1)
        # Rewire b's page to share a's frame copy-on-write.
        old_b_frame = b.physical_pages(va_b, 1)[0]
        kernel.pagemap.put_page(old_b_frame)
        b.page_table.clear(b.vpn_of(va_b))
        self._share_cow(kernel, a, b, va_a, va_b)
        assert b.read(va_b, 6) == b"shared"
        # Write from b breaks the share.
        b.write(va_b, b"mine!!")
        assert b.read(va_b, 6) == b"mine!!"
        assert a.read(va_a, 6) == b"shared"
        assert a.physical_pages(va_a, 1) != b.physical_pages(va_b, 1)

    def test_cow_last_sharer_reuses_frame(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"x")
        pte = t.page_table.lookup(t.vpn_of(va))
        pte.writable = False
        pte.cow = True
        kernel.pagemap.table.cow_shares[pte.frame] = 1
        frame_before = pte.frame
        t.write(va, b"y")
        assert t.physical_pages(va, 1)[0] == frame_before
        assert kernel.trace.count("cow_reuse") == 1


class TestCowUnderflowRegression:
    """Regression: ``_break_cow`` used to clamp a sharer-count underflow
    silently (``cow_shares`` already 0 at the decrement).  An underflow
    means fork/munmap/exit accounting lost a decrement — the kind of
    rot the ODP eviction path, which trusts ``cow_shares``, would turn
    into a stale DMA — so it must leave evidence and be fatal."""

    @staticmethod
    def _broken_cow_page(kernel):
        """A COW-marked PTE whose frame claims zero sharers (the lost
        decrement already happened)."""
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"x")
        pte = t.page_table.lookup(t.vpn_of(va))
        pte.writable = False
        pte.cow = True
        assert kernel.pagemap.table.cow_shares[pte.frame] == 0
        return t, va

    def test_underflow_fatal_under_strict_accounting(self):
        from repro.errors import PageAccountingError
        from repro.kernel.kernel import Kernel
        kernel = Kernel(num_frames=64, swap_slots=256)
        t, va = self._broken_cow_page(kernel)
        with pytest.raises(PageAccountingError):
            t.write(va, b"y")
        events = kernel.trace.of_kind("cow_underflow")
        assert len(events) == 1
        assert events[0]["pid"] == t.pid
        assert events[0]["cow_shares"] == 0

    def test_healthy_cow_break_is_silent(self, kernel):
        """The fork → write path never trips the check."""
        parent = kernel.create_task()
        va = parent.mmap(2)
        parent.write(va, b"shared")
        child = kernel.fork_task(parent)
        child.write(va, b"child!")
        parent.write(va + PAGE_SIZE, b"parent")
        assert kernel.trace.count("cow_underflow") == 0
        assert child.read(va, 6) == b"child!"
        assert parent.read(va, 6) == b"shared"

