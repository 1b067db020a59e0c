"""The vectorized frame table: columnar state, incremental index sets,
and the fast audit paths they enable.

The audits read the incremental sets instead of walking every frame;
the whole-table walks below are the parity oracle they are checked
against."""

import pytest

from repro.core.audit import LeakedPin, audit_kernel_invariants, \
    audit_pin_leaks
from repro.errors import PageAccountingError
from repro.kernel.pagemap import PageMap
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel


def full_check_free_list(pm):
    """Walk the whole free list through the descriptor views."""
    seen = set()
    for frame in pm._free:
        if frame in seen:
            raise PageAccountingError(f"frame {frame} on the free list twice")
        seen.add(frame)
        if pm.pages[frame].count != 0:
            raise PageAccountingError(
                f"frame {frame} free with refcount {pm.pages[frame].count}")


def full_pin_leaks(kernel):
    """Every frame whose pins exceed zero (no agents: nothing explains
    a pin), found by visiting every descriptor."""
    return [LeakedPin(frame=pd.frame, pin_count=pd.pin_count, expected=0)
            for pd in kernel.pagemap if pd.pin_count > 0]


def full_frame_counters(kernel):
    """Check every descriptor's pin and reference counters."""
    for pd in kernel.pagemap:
        if pd.pin_count > 0 and pd.count == 0:
            raise PageAccountingError(
                f"frame {pd.frame} pinned ({pd.pin_count}) but free")
        if pd.pin_count < 0 or pd.count < 0:
            raise PageAccountingError(
                f"frame {pd.frame} has negative counters")


@pytest.fixture
def pm():
    return PageMap(64, SimClock(), CostModel(), reserved_frames=4)


class TestViewCompatibility:
    def test_views_are_identity_stable(self, pm):
        pd = pm.alloc("buf")
        assert pm.page(pd.frame) is pd
        assert pm.pages[pd.frame] is pd

    def test_view_writes_land_in_the_columns(self, pm):
        pd = pm.alloc("buf")
        pd.cow_shares = 2
        pd.mapping = (7, 42)
        assert pm.table.cow_shares[pd.frame] == 2
        assert pm.table.mappings[pd.frame] == (7, 42)

    def test_alloc_resets_every_column(self, pm):
        pd = pm.alloc("first")
        pd.mapping = (1, 2)
        pd.cow_shares = 3
        frame = pd.frame
        pm.put_page(frame)
        pd2 = pm.alloc("second")
        assert pd2.frame == frame      # LIFO free list hands it back
        assert (pd2.count, pd2.cow_shares) == (1, 0)
        assert pd2.mapping is None
        assert pd2.tag == "second"


class TestPinnedSet:
    def test_pin_unpin_maintains_the_set(self, pm):
        pd = pm.alloc()
        assert pm.table.pinned == set()
        pd.pin()
        pd.pin()
        assert pm.table.pinned == {pd.frame}
        pd.unpin()
        assert pm.table.pinned == {pd.frame}
        pd.unpin()
        assert pm.table.pinned == set()

    def test_pin_count_setter_maintains_the_set(self, pm):
        pd = pm.alloc()
        pd.pin_count = 5
        assert pm.pinned_frames() == [pd.frame]
        pd.pin_count = 0
        assert pm.pinned_frames() == []

    def test_pinned_frames_sorted(self, pm):
        frames = [pm.alloc() for _ in range(3)]
        for pd in frames:
            pd.pin()
        assert pm.pinned_frames() == sorted(pd.frame for pd in frames)


class TestOrphanCandidates:
    def test_tag_writes_maintain_the_candidate_set(self, pm):
        pd = pm.alloc("buf")
        assert pm.table.orphan_candidates == set()
        pd.tag = "orphan"
        assert pm.table.orphan_candidates == {pd.frame}
        pd.tag = ""
        assert pm.table.orphan_candidates == set()

    def test_orphans_query_filters_candidates(self, pm):
        orphan = pm.alloc()
        orphan.tag = "orphan"
        orphan.mapping = None
        mapped = pm.alloc()
        mapped.tag = "orphan"
        mapped.mapping = (1, 2)      # still mapped: not an orphan
        assert pm.orphans() == [orphan]
        assert pm.orphan_count() == 1

    def test_freed_frame_leaves_the_candidate_set(self, pm):
        pd = pm.alloc()
        pd.tag = "orphan"
        pm.put_page(pd.frame)
        assert pm.table.orphan_candidates == set()
        assert pm.orphans() == []


class TestFreeListAudit:
    def test_fast_and_full_paths_accept_a_clean_map(self, pm):
        pm.alloc()
        pm.check_free_list()
        full_check_free_list(pm)

    def test_both_paths_catch_nonzero_count_on_free_frame(self, pm):
        frame = pm._free[-1]
        pm.table.counts[frame] = 1       # corrupt behind the map's back
        with pytest.raises(PageAccountingError, match="refcount"):
            pm.check_free_list()
        with pytest.raises(PageAccountingError, match="refcount"):
            full_check_free_list(pm)

    def test_both_paths_catch_a_duplicate_free_entry(self, pm):
        pm._free.append(pm._free[-1])    # corrupt: same frame twice
        with pytest.raises(PageAccountingError):
            pm.check_free_list()
        with pytest.raises(PageAccountingError, match="twice"):
            full_check_free_list(pm)


class TestFastAudits:
    def test_pin_leak_fast_path_matches_full_scan(self, kernel):
        pd = kernel.pagemap.alloc("leak")
        pd.pin()
        fast = audit_pin_leaks(kernel)
        full = full_pin_leaks(kernel)
        assert fast == full
        assert len(fast) == 1 and fast[0].frame == pd.frame
        pd.unpin()
        kernel.pagemap.put_page(pd.frame)
        assert audit_pin_leaks(kernel) == []

    def test_invariants_fast_path_catches_pinned_but_free(self, kernel):
        pd = kernel.pagemap.alloc()
        frame = pd.frame
        kernel.pagemap.table.counts[frame] = 0     # corrupt directly
        kernel.pagemap.table.set_pin_count(frame, 1)
        with pytest.raises(PageAccountingError, match="pinned"):
            audit_kernel_invariants(kernel)
        with pytest.raises(PageAccountingError, match="pinned"):
            full_frame_counters(kernel)
        kernel.pagemap.table.set_pin_count(frame, 0)
        kernel.pagemap.table.counts[frame] = 1
        kernel.pagemap.put_page(frame)

    def test_invariants_fast_path_catches_negative_counters(self, kernel):
        pd = kernel.pagemap.alloc()
        frame = pd.frame
        kernel.pagemap.table.counts[frame] = -1
        with pytest.raises(PageAccountingError, match="negative"):
            audit_kernel_invariants(kernel)
        with pytest.raises(PageAccountingError, match="negative"):
            full_frame_counters(kernel)
        kernel.pagemap.table.counts[frame] = 1
        kernel.pagemap.put_page(frame)
