"""Tests for the reclaim path — the skip rules the paper's whole argument
rests on (Sec. 2.2)."""

import hashlib
from collections import Counter

import pytest

from repro.errors import OutOfMemory
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.flags import PG_REFERENCED, VM_LOCKED
from repro.kernel.kernel import Kernel


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
        ev = kernel.trace.last("swap_out")
        assert ev is not None and ev["frame"] == frame
        assert ev["freed"] is False
        pte = t.page_table.lookup(t.vpn_of(va))
        assert pte.swapped
        pd = kernel.pagemap.page(frame)
        assert pd.count == 1 and pd.tag == "orphan"
        assert pd in kernel.pagemap.orphans()

    def test_cow_shared_page_skipped(self, kernel):
        t, va = fill_task(kernel, 1)
        pd = kernel.pagemap.page(t.physical_pages(va, 1)[0])
        pd.cow_shares = 1
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
        pds = [kernel.add_page_cache_page() for _ in range(4)]
        freed = paging.shrink_mmap(kernel, kernel.pagemap.num_frames)
        assert freed == 4
        assert kernel.page_cache == set()
        for pd in pds:
            assert pd.free

    def test_second_chance_for_referenced_pages(self, kernel):
        pd = kernel.add_page_cache_page()
        pd.set_flag(PG_REFERENCED)
        assert paging.shrink_mmap(kernel, kernel.pagemap.num_frames) == 0
        assert not pd.referenced   # bit cleared: second chance spent
        assert paging.shrink_mmap(kernel, kernel.pagemap.num_frames) == 1

    def test_locked_cache_page_untouched(self, kernel):
        pd = kernel.add_page_cache_page()
        kernel.lock_page(pd.frame)
        for _ in range(3):
            assert paging.shrink_mmap(kernel,
                                      kernel.pagemap.num_frames) == 0
        assert pd.in_page_cache

    def test_extra_ref_cache_page_skipped(self, kernel):
        pd = kernel.add_page_cache_page()
        kernel.pagemap.get_page(pd.frame)
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
        assert k.free_pages <= k.min_free_pages + 2
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


class TestPinEvictionHooks:
    """Regression for the per-frame eviction hook: reclaim used to skip
    *every* pinned frame unconditionally; now it asks the registered
    pin owners first, and only skips when no owner releases its pins."""

    def test_pinned_skip_without_hooks(self, kernel):
        t, va = fill_task(kernel, 4)
        for vpn in range(t.vpn_of(va), t.vpn_of(va) + 4):
            kernel.pin_user_page(t, vpn)
        assert kernel.pin_eviction_hooks == []
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
        kernel.pin_eviction_hooks.append(
            lambda frame: (asked.append(frame), False)[1])
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
            if frame not in frames:
                return False
            kernel.unpin_user_page(frame, t.pid)
            return True

        kernel.pin_eviction_hooks.append(release)
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
        k = Kernel(num_frames=128, swap_slots=1024, seed=0)
        for i in range(6):
            pd = k.add_page_cache_page()
            if i % 2:
                pd.set_flag(PG_REFERENCED)
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
        k.unlock_page(io_frame)
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
        assert k.clock.now_ns == 1_996_271_392
        assert k.clock.categories()["reclaim"] == 272_850
