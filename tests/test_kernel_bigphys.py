"""Tests for the Bigphysarea reservation and its locking backend."""

import pytest

from repro.errors import InvalidArgument, OutOfMemory
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.bigphys import BigPhysArea
from repro.kernel.flags import PG_RESERVED
from repro.via.locking.bigphys import BigphysLocking


@pytest.fixture
def area(kernel):
    return BigPhysArea(kernel, 32)


class TestReservation:
    def test_reserves_frames_at_boot(self, kernel, area):
        assert len(area.frames) == 32
        for frame in area.frames:
            assert kernel.pagemap.table.flags[frame] & PG_RESERVED
            assert kernel.pagemap.table.tags[frame] == "bigphysarea"

    def test_reservation_removes_frames_from_general_use(self, kernel):
        free0 = kernel.pagemap.free_count
        BigPhysArea(kernel, 32)
        assert kernel.pagemap.free_count == free0 - 32

    def test_oversized_reservation_rejected(self, kernel):
        with pytest.raises(OutOfMemory):
            BigPhysArea(kernel, kernel.pagemap.num_frames)

    def test_wastes_memory_even_when_unused(self):
        """The documented drawback: the reservation shrinks everyone
        else's memory whether or not it is exported later — a working
        set that fits comfortably without the reservation is forced to
        swap with it."""
        from repro.kernel.kernel import Kernel
        workload = 40
        without = Kernel(num_frames=64, swap_slots=1024)
        t = without.create_task()
        va = t.mmap(workload)
        t.touch_pages(va, workload)
        assert without.swap.writes == 0          # fits in RAM

        with_resv = Kernel(num_frames=64, swap_slots=1024)
        BigPhysArea(with_resv, 30)               # half of RAM reserved
        t2 = with_resv.create_task()
        va2 = t2.mmap(workload)
        t2.touch_pages(va2, workload)            # same workload...
        assert with_resv.swap.writes > 0         # ...now thrashes


class TestSpecialMalloc:
    def test_alloc_maps_resident_reserved_pages(self, kernel, area):
        t = kernel.create_task()
        va = area.alloc(t, 4)
        assert t.resident_pages() == 4
        t.write(va, b"comm buffer")
        assert t.read(va, 11) == b"comm buffer"
        area.alloc(t, 28)                        # the rest of the pool
        with pytest.raises(OutOfMemory):
            area.alloc(t, 1)

    def test_pages_never_swapped(self, kernel, area):
        t = kernel.create_task()
        va = area.alloc(t, 8)
        t.write(va, b"pinned by reservation")
        frames = t.physical_pages(va, 8)
        paging.swap_out(kernel, kernel.pagemap.num_frames)
        assert t.physical_pages(va, 8) == frames

    def test_free_returns_to_pool(self, kernel, area):
        t = kernel.create_task()
        va = area.alloc(t, 4)
        area.free(t, va)
        area.alloc(t, 32)                        # the whole pool again
        from repro.errors import SegmentationFault
        with pytest.raises(SegmentationFault):
            t.read(va, 1)

    def test_pool_exhaustion(self, kernel, area):
        t = kernel.create_task()
        area.alloc(t, 32)
        with pytest.raises(OutOfMemory):
            area.alloc(t, 1)

    def test_free_unknown_grant_rejected(self, kernel, area):
        t = kernel.create_task()
        with pytest.raises(InvalidArgument):
            area.free(t, 0x1234000)

    def test_accounting_invariants_hold(self, kernel, area):
        from repro.core.audit import audit_kernel_invariants
        t = kernel.create_task()
        va = area.alloc(t, 4)
        audit_kernel_invariants(kernel)
        area.free(t, va)
        audit_kernel_invariants(kernel)


class TestBigphysBackend:
    def test_accepts_bigphys_buffers(self, kernel, area):
        be = BigphysLocking(area)
        t = kernel.create_task()
        va = area.alloc(t, 4)
        res = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        assert res.frames == t.physical_pages(va, 4)
        be.unlock(kernel, res.cookie)

    def test_rejects_ordinary_memory(self, kernel, area):
        """The architecture-independence violation: plain mmap'd user
        buffers cannot be registered."""
        be = BigphysLocking(area)
        t = kernel.create_task()
        va = t.mmap(4)
        t.touch_pages(va, 4)
        with pytest.raises(InvalidArgument):
            be.lock(kernel, t, va, 4 * PAGE_SIZE)

    def test_reliable_under_pressure(self, kernel, area):
        be = BigphysLocking(area)
        t = kernel.create_task()
        va = area.alloc(t, 8)
        res = be.lock(kernel, t, va, 8 * PAGE_SIZE)
        paging.swap_out(kernel, kernel.pagemap.num_frames)
        assert t.physical_pages(va, 8) == res.frames

    def test_multiple_registrations_trivially_safe(self, kernel, area):
        be = BigphysLocking(area)
        t = kernel.create_task()
        va = area.alloc(t, 4)
        r1 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        r2 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        be.unlock(kernel, r1.cookie)
        paging.swap_out(kernel, kernel.pagemap.num_frames)
        assert t.physical_pages(va, 4) == r2.frames
        be.unlock(kernel, r2.cookie)

    def test_capability_summary(self, area):
        backend = BigphysLocking(area)
        assert backend.reliable
        assert backend.supports_multiple_registration
