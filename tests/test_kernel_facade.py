"""Tests for the Kernel facade: tasks, mmap/munmap, user access,
virt_to_phys, page cache, stats."""

import pytest

from repro.errors import InvalidArgument, SegmentationFault
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.flags import PG_LOCKED, PG_PAGECACHE


class TestTasks:
    def test_pids_unique_and_findable(self, kernel):
        a = kernel.create_task()
        b = kernel.create_task()
        assert a.pid != b.pid
        assert kernel.find_task(a.pid) is a
        with pytest.raises(InvalidArgument):
            kernel.find_task(9999)

    def test_exit_task_releases_memory(self, kernel):
        t = kernel.create_task()
        free0 = kernel.pagemap.free_count
        va = t.mmap(8)
        t.touch_pages(va, 8)
        kernel.exit_task(t)
        assert kernel.pagemap.free_count == free0
        assert t not in kernel.tasks


class TestMmapMunmap:
    def test_mmap_returns_page_aligned_distinct_ranges(self, kernel):
        t = kernel.create_task()
        a = t.mmap(4)
        b = t.mmap(4)
        assert a % PAGE_SIZE == 0 and b % PAGE_SIZE == 0
        assert abs(b - a) >= 4 * PAGE_SIZE

    def test_mmap_zero_pages_rejected(self, kernel):
        t = kernel.create_task()
        with pytest.raises(InvalidArgument):
            t.mmap(0)

    def test_munmap_frees_frames_and_slots(self, kernel):
        from repro.kernel import paging
        t = kernel.create_task()
        va = t.mmap(4)
        t.touch_pages(va, 4)
        paging.swap_out(kernel, 2)
        used_slots = kernel.swap.slots_in_use
        assert used_slots > 0
        free0 = kernel.pagemap.free_count
        t.munmap(va, 4)
        assert kernel.swap.slots_in_use == 0
        assert kernel.pagemap.free_count > free0

    def test_munmap_unaligned_rejected(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        with pytest.raises(InvalidArgument):
            t.munmap(va + 1, 1)

    def test_access_after_munmap_segfaults(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"x")
        t.munmap(va, 1)
        with pytest.raises(SegmentationFault):
            t.read(va, 1)


class TestUserAccess:
    def test_write_read_roundtrip(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        payload = bytes(range(256)) * 20
        t.write(va + 123, payload)
        assert t.read(va + 123, len(payload)) == payload

    def test_cross_page_write(self, kernel):
        t = kernel.create_task()
        va = t.mmap(2)
        t.write(va + PAGE_SIZE - 2, b"abcd")
        assert t.read(va + PAGE_SIZE - 2, 4) == b"abcd"
        f0, f1 = t.physical_pages(va, 2)
        assert kernel.phys.read(f0, PAGE_SIZE - 2, 2) == b"ab"
        assert kernel.phys.read(f1, 0, 2) == b"cd"

    def test_write_marks_dirty(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"x")
        assert t.page_table.lookup(t.vpn_of(va)).dirty


class TestVirtToPhys:
    def test_matches_page_table(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        t.write(va, b"x")
        frame = t.physical_pages(va, 1)[0]
        assert kernel.virt_to_phys(t, va + 17) == frame * PAGE_SIZE + 17

    def test_nonresident_raises(self, kernel):
        t = kernel.create_task()
        va = t.mmap(1)
        with pytest.raises(SegmentationFault):
            kernel.virt_to_phys(t, va)


class TestPageCacheAndStats:
    def test_page_cache_page_flagged(self, kernel):
        frame = kernel.add_page_cache_page()
        assert kernel.pagemap.table.flags[frame] & PG_PAGECACHE
        assert frame in kernel.page_cache

    def test_lock_page(self, kernel):
        frame = kernel.add_page_cache_page()
        kernel.lock_page(frame)
        assert kernel.pagemap.table.flags[frame] & PG_LOCKED

    def test_memory_stats_shape(self, kernel):
        t = kernel.create_task()
        va = t.mmap(4)
        t.touch_pages(va, 4)
        stats = kernel.memory_stats()
        assert stats["resident_task_pages"] == 4
        assert stats["total_frames"] == 256
        assert stats["orphan_frames"] == 0
        assert stats["free_frames"] == kernel.pagemap.free_count
