"""The vectorized frame table: columnar state, incremental index sets,
and the fast audit paths they enable.

The audits read the incremental sets instead of walking every frame;
the whole-table walks below are the parity oracle they are checked
against."""

import pytest

from repro.core.audit import LeakedPin, audit_kernel_invariants, \
    audit_pin_leaks
from repro.errors import PageAccountingError
from repro.kernel.page import ORPHAN_TAG
from repro.kernel.pagemap import PageMap
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel


def full_check_free_list(pm):
    """Walk the whole free list, one frame at a time."""
    seen = set()
    for frame in pm._free:
        if frame in seen:
            raise PageAccountingError(f"frame {frame} on the free list twice")
        seen.add(frame)
        if pm.table.counts[frame] != 0:
            raise PageAccountingError(
                f"frame {frame} free with refcount {pm.table.counts[frame]}")


def full_pin_leaks(kernel):
    """Every frame whose pins exceed zero (no agents: nothing explains
    a pin), found by visiting every frame."""
    return [LeakedPin(frame=frame, pin_count=pins, expected=0)
            for frame, pins in enumerate(kernel.pagemap.table.pin_counts)
            if pins > 0]


def full_frame_counters(kernel):
    """Check every frame's pin and reference counters."""
    table = kernel.pagemap.table
    for frame in range(table.num_frames):
        pins, count = table.pin_counts[frame], table.counts[frame]
        if pins > 0 and count == 0:
            raise PageAccountingError(
                f"frame {frame} pinned ({pins}) but free")
        if pins < 0 or count < 0:
            raise PageAccountingError(
                f"frame {frame} has negative counters")


@pytest.fixture
def pm():
    return PageMap(64, SimClock(), CostModel(), reserved_frames=4)


class TestColumns:
    def test_alloc_resets_every_column(self, pm):
        frame = pm.alloc("first")
        pm.table.mappings[frame] = (1, 2)
        pm.table.cow_shares[frame] = 3
        pm.put_page(frame)
        assert pm.alloc("second") == frame   # LIFO free list hands it back
        assert (pm.table.counts[frame], pm.table.cow_shares[frame]) == (1, 0)
        assert pm.table.mappings[frame] is None
        assert pm.table.tags[frame] == "second"


class TestPinnedSet:
    def test_pin_unpin_maintains_the_set(self, pm):
        frame = pm.alloc()
        assert pm.table.pinned == set()
        pm.table.incr_pin(frame)
        pm.table.incr_pin(frame)
        assert pm.table.pinned == {frame}
        pm.table.decr_pin(frame)
        assert pm.table.pinned == {frame}
        pm.table.decr_pin(frame)
        assert pm.table.pinned == set()

    def test_pin_count_setter_maintains_the_set(self, pm):
        frame = pm.alloc()
        pm.table.set_pin_count(frame, 5)
        assert pm.pinned_frames() == [frame]
        pm.table.set_pin_count(frame, 0)
        assert pm.pinned_frames() == []

    def test_pinned_frames_sorted(self, pm):
        frames = [pm.alloc() for _ in range(3)]
        for frame in frames:
            pm.table.incr_pin(frame)
        assert pm.pinned_frames() == sorted(frames)


class TestOrphanCandidates:
    def test_tag_writes_maintain_the_candidate_set(self, pm):
        frame = pm.alloc("buf")
        assert pm.table.orphan_candidates == set()
        pm.table.set_tag(frame, ORPHAN_TAG)
        assert pm.table.orphan_candidates == {frame}
        pm.table.set_tag(frame, "")
        assert pm.table.orphan_candidates == set()

    def test_orphans_query_filters_candidates(self, pm):
        orphan = pm.alloc()
        pm.table.set_tag(orphan, ORPHAN_TAG)
        mapped = pm.alloc()
        pm.table.set_tag(mapped, ORPHAN_TAG)
        pm.table.mappings[mapped] = (1, 2)   # still mapped: not an orphan
        assert pm.orphan_count() == 1

    def test_freed_frame_leaves_the_candidate_set(self, pm):
        frame = pm.alloc()
        pm.table.set_tag(frame, ORPHAN_TAG)
        pm.put_page(frame)
        assert pm.table.orphan_candidates == set()
        assert pm.orphan_count() == 0


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
        frame = kernel.pagemap.alloc("leak")
        kernel.pagemap.table.incr_pin(frame)
        fast = audit_pin_leaks(kernel)
        full = full_pin_leaks(kernel)
        assert fast == full
        assert len(fast) == 1 and fast[0].frame == frame
        kernel.pagemap.table.decr_pin(frame)
        kernel.pagemap.put_page(frame)
        assert audit_pin_leaks(kernel) == []

    def test_invariants_fast_path_catches_pinned_but_free(self, kernel):
        frame = kernel.pagemap.alloc()
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
        frame = kernel.pagemap.alloc()
        kernel.pagemap.table.counts[frame] = -1
        with pytest.raises(PageAccountingError, match="negative"):
            audit_kernel_invariants(kernel)
        with pytest.raises(PageAccountingError, match="negative"):
            full_frame_counters(kernel)
        kernel.pagemap.table.counts[frame] = 1
        kernel.pagemap.put_page(frame)
