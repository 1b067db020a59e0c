"""Tests for the four memory-locking backends.

These test the *mechanisms*; the full Sec. 3.1 experiment (registration →
pressure → DMA probe → comparison) lives in ``test_core_locktest.py``.
"""

import pytest

from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.flags import PG_LOCKED, PG_RESERVED
from repro.kernel.kernel import Kernel
from repro.via.locking import BACKENDS, make_backend
from repro.via.locking.vma_mlock import MlockLocking


def _locked_pages(task) -> int:
    """Pages inside the task's VM_LOCKED areas."""
    return sum(area.npages for area in task.vmas if area.locked)


@pytest.fixture
def setup(kernel):
    t = kernel.create_task(name="app")
    va = t.mmap(8)
    return kernel, t, va


def pressure(kernel: Kernel, rounds: int = 4) -> None:
    """Apply heavy reclaim pressure."""
    for _ in range(rounds):
        paging.swap_out(kernel, kernel.pagemap.num_frames)


class TestRegistry:
    def test_all_names_construct(self):
        for name in BACKENDS:
            be = make_backend(name)
            assert be.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_backend("nonsense")

    def test_capability_matrix(self):
        """The capability matrix the paper's abstract summarises."""
        caps = {n: make_backend(n) for n in BACKENDS}
        assert not caps["refcount"].reliable
        assert caps["refcount"].supports_multiple_registration
        assert caps["pageflags"].reliable
        assert not caps["pageflags"].supports_multiple_registration
        assert caps["mlock_naive"].reliable
        assert not caps["mlock_naive"].supports_multiple_registration
        assert caps["mlock"].reliable
        assert caps["mlock"].supports_multiple_registration
        assert caps["kiobuf"].reliable
        assert caps["kiobuf"].supports_multiple_registration
        assert caps["odp"].reliable          # reliable by repair
        assert caps["odp"].supports_multiple_registration
        # only kiobuf and odp keep the driver out of the page tables
        assert not caps["kiobuf"].walks_page_tables
        assert not caps["odp"].walks_page_tables
        for name in ("refcount", "pageflags", "mlock", "mlock_naive"):
            assert caps[name].walks_page_tables


#: The backends that pin (and therefore resolve frames) at lock time.
#: ``odp`` deliberately does neither — its registration-time contract
#: is exercised in ``test_via_odp.py``.
EAGER_BACKENDS = sorted(set(BACKENDS) - {"odp"})


class TestAllBackendsCommon:
    """Behaviours every *eager* backend shares."""

    @pytest.mark.parametrize("name", EAGER_BACKENDS)
    def test_lock_returns_resident_frames(self, setup, name):
        kernel, t, va = setup
        be = make_backend(name)
        res = be.lock(kernel, t, va, 8 * PAGE_SIZE)
        assert len(res.frames) == 8
        assert res.frames == t.physical_pages(va, 8)

    @pytest.mark.parametrize("name", EAGER_BACKENDS)
    def test_lock_faults_in_nonresident_pages(self, setup, name):
        kernel, t, va = setup
        be = make_backend(name)
        assert t.resident_pages() == 0
        be.lock(kernel, t, va, 8 * PAGE_SIZE)
        assert t.resident_pages() == 8

    @pytest.mark.parametrize("name", EAGER_BACKENDS)
    def test_unlock_restores_page_state(self, setup, name):
        kernel, t, va = setup
        be = make_backend(name)
        res = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        be.unlock(kernel, res.cookie)
        for frame in res.frames:
            table = kernel.pagemap.table
            assert table.counts[frame] == 1            # only the mapping
            assert table.pin_counts[frame] == 0
            assert not table.flags[frame] & (PG_LOCKED | PG_RESERVED)
        assert _locked_pages(t) == 0

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_partial_bytes_cover_whole_pages(self, setup, name):
        kernel, t, va = setup
        be = make_backend(name)
        res = be.lock(kernel, t, va + 100, PAGE_SIZE)  # straddles 2 pages
        assert len(res.frames) == 2


class TestRefcountBackend:
    def test_unreliable_under_pressure(self, setup):
        """Pages relocate despite the registration — the paper's bug."""
        kernel, t, va = setup
        be = make_backend("refcount")
        res = be.lock(kernel, t, va, 8 * PAGE_SIZE)
        pressure(kernel)
        t.touch_pages(va, 8)           # fault everything back (step 4)
        assert t.physical_pages(va, 8) != res.frames
        # The original frames are orphans.
        table = kernel.pagemap.table
        assert kernel.pagemap.orphan_count() == len(res.frames)
        for frame in res.frames:
            assert table.tags[frame] == "orphan"
            assert table.counts[frame] == 1
            assert table.mappings[frame] is None

    def test_unlock_after_orphaning_frees_orphans(self, setup):
        kernel, t, va = setup
        be = make_backend("refcount")
        res = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        pressure(kernel)
        t.touch_pages(va, 4)
        be.unlock(kernel, res.cookie)
        assert kernel.pagemap.orphan_count() == 0


class TestPageFlagBackend:
    def test_reliable_while_registered(self, setup):
        kernel, t, va = setup
        be = make_backend("pageflags")
        res = be.lock(kernel, t, va, 8 * PAGE_SIZE)
        pressure(kernel)
        assert t.physical_pages(va, 8) == res.frames

    def test_sets_both_flags(self, setup):
        kernel, t, va = setup
        be = make_backend("pageflags")
        res = be.lock(kernel, t, va, 2 * PAGE_SIZE)
        for frame in res.frames:
            flags = kernel.pagemap.table.flags[frame]
            assert flags & PG_LOCKED and flags & PG_RESERVED

    def test_unconditional_clear_clobbers_kernel_lock(self, setup):
        """The 'risky' hazard: deregistration clears PG_locked even when
        the *kernel* holds it for I/O."""
        kernel, t, va = setup
        be = make_backend("pageflags")
        res = be.lock(kernel, t, va, PAGE_SIZE)
        frame = res.frames[0]
        kernel.lock_page(frame)        # kernel I/O in flight
        be.unlock(kernel, res.cookie)
        assert not kernel.pagemap.table.flags[frame] & PG_LOCKED   # clobbered!

    def test_overlapping_registration_loses_protection(self, setup):
        """First deregistration strips the flags off the still-live
        second registration."""
        kernel, t, va = setup
        be = make_backend("pageflags")
        r1 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        r2 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        be.unlock(kernel, r1.cookie)
        pressure(kernel)
        # r2 should still protect the pages, but does not:
        t.touch_pages(va, 4)
        assert t.physical_pages(va, 4) != r2.frames
        be.unlock(kernel, r2.cookie)


class TestMlockBackends:
    def test_naive_reliable_for_single_registration(self, setup):
        kernel, t, va = setup
        be = make_backend("mlock_naive")
        res = be.lock(kernel, t, va, 8 * PAGE_SIZE)
        pressure(kernel)
        assert t.physical_pages(va, 8) == res.frames

    def test_naive_multiple_registration_broken(self, setup):
        """'A single unlock operation annuls multiple lock operations' —
        without driver bookkeeping the first deregister unlocks all."""
        kernel, t, va = setup
        be = make_backend("mlock_naive")
        r1 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        r2 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        be.unlock(kernel, r1.cookie)
        assert _locked_pages(t) == 0     # r2's protection is gone
        pressure(kernel)
        t.touch_pages(va, 4)
        assert t.physical_pages(va, 4) != r2.frames

    def test_tracked_multiple_registration_survives(self, setup):
        kernel, t, va = setup
        be = make_backend("mlock")
        r1 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        r2 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        be.unlock(kernel, r1.cookie)
        assert _locked_pages(t) == 4     # still locked for r2
        pressure(kernel)
        assert t.physical_pages(va, 4) == r2.frames
        be.unlock(kernel, r2.cookie)
        assert _locked_pages(t) == 0

    def test_tracked_partial_overlap(self, setup):
        """Overlapping but non-identical ranges release correctly."""
        kernel, t, va = setup
        be = make_backend("mlock")
        r1 = be.lock(kernel, t, va, 4 * PAGE_SIZE)             # pages 0-3
        r2 = be.lock(kernel, t, va + 2 * PAGE_SIZE,
                     4 * PAGE_SIZE)                            # pages 2-5
        be.unlock(kernel, r1.cookie)
        # pages 2-5 must stay locked; 0-1 released
        base_vpn = t.vpn_of(va)
        assert [(a.start_vpn - base_vpn, a.end_vpn - base_vpn)
                for a in t.vmas if a.locked] == [(2, 6)]
        be.unlock(kernel, r2.cookie)
        assert _locked_pages(t) == 0
        del r2

    def test_cap_dance_leaves_capabilities_clean(self, setup):
        kernel, t, va = setup
        be = MlockLocking(track_ranges=True)
        res = be.lock(kernel, t, va, PAGE_SIZE)
        assert t.capabilities == set()
        be.unlock(kernel, res.cookie)


class TestKiobufBackend:
    def test_reliable_under_pressure(self, setup):
        kernel, t, va = setup
        be = make_backend("kiobuf")
        res = be.lock(kernel, t, va, 8 * PAGE_SIZE)
        pressure(kernel)
        assert t.physical_pages(va, 8) == res.frames
        assert any(e["reason"] == "pinned"
                   for e in kernel.trace.of_kind("swap_skip"))

    def test_multiple_registrations_nest(self, setup):
        kernel, t, va = setup
        be = make_backend("kiobuf")
        r1 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        r2 = be.lock(kernel, t, va, 4 * PAGE_SIZE)
        be.unlock(kernel, r1.cookie)
        pressure(kernel)
        assert t.physical_pages(va, 4) == r2.frames   # still pinned
        be.unlock(kernel, r2.cookie)
        pressure(kernel)
        assert t.resident_pages() == 0                # now stealable

    def test_kernel_io_lock_unaffected(self, setup):
        """Unlike pageflags, deregistration cannot strip a kernel-held
        PG_locked bit."""
        kernel, t, va = setup
        be = make_backend("kiobuf")
        res = be.lock(kernel, t, va, PAGE_SIZE)
        frame = res.frames[0]
        kernel.lock_page(frame)
        be.unlock(kernel, res.cookie)
        assert kernel.pagemap.table.flags[frame] & PG_LOCKED   # untouched
