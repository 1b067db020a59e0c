"""Tests for the frame table and the page map."""

import pytest

from repro.errors import OutOfMemory, PageAccountingError
from repro.kernel.flags import PG_RESERVED
from repro.kernel.page import ORPHAN_TAG, FrameTable
from repro.kernel.pagemap import PageMap
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.trace import Trace


class TestFrameTable:
    def test_incr_decr_pin_tracks_pinned_set(self):
        table = FrameTable(2)
        table.incr_pin(1)
        table.incr_pin(1)
        assert table.pin_counts[1] == 2 and table.pinned == {1}
        table.decr_pin(1)
        table.decr_pin(1)
        assert table.pin_counts[1] == 0 and table.pinned == set()

    def test_decr_pin_underflow(self):
        table = FrameTable(1)
        with pytest.raises(PageAccountingError):
            table.decr_pin(0)


def make_map(n: int = 8, reserved: int = 2) -> PageMap:
    clock = SimClock()
    return PageMap(n, clock, CostModel(), Trace(clock), reserved_frames=reserved)


class TestPageMap:
    def test_reserved_frames_marked_and_unallocatable(self):
        pm = make_map(8, reserved=2)
        assert pm.table.flags[0] & PG_RESERVED
        assert pm.table.flags[1] & PG_RESERVED
        assert pm.free_count == 6
        seen = {pm.alloc() for _ in range(6)}
        assert 0 not in seen and 1 not in seen

    def test_alloc_sets_fresh_state(self):
        pm = make_map()
        frame = pm.alloc(tag="t")
        assert pm.table.counts[frame] == 1
        assert pm.table.flags[frame] == 0
        assert pm.table.pin_counts[frame] == 0
        assert pm.table.tags[frame] == "t"

    def test_alloc_exhaustion(self):
        pm = make_map(4, reserved=0)
        for _ in range(4):
            pm.alloc()
        with pytest.raises(OutOfMemory):
            pm.alloc()

    def test_put_frees_only_at_zero(self):
        pm = make_map()
        frame = pm.alloc()
        pm.get_page(frame)
        assert pm.put_page(frame) is False   # still referenced
        assert pm.put_page(frame) is True    # now freed
        assert pm.free_count == 6

    def test_put_page_underflow(self):
        pm = make_map()
        frame = pm.alloc()
        pm.put_page(frame)
        with pytest.raises(PageAccountingError):
            pm.put_page(frame)

    def test_get_page_on_free_frame_rejected(self):
        pm = make_map()
        frame = pm.alloc()
        pm.put_page(frame)
        with pytest.raises(PageAccountingError):
            pm.get_page(frame)

    def test_freeing_pinned_frame_is_accounting_error(self):
        pm = make_map()
        frame = pm.alloc()
        pm.table.incr_pin(frame)
        with pytest.raises(PageAccountingError):
            pm.put_page(frame)

    def test_free_list_invariant_check(self):
        pm = make_map()
        pm.check_free_list()   # healthy map passes
        pm.put_page(pm.alloc())
        pm.check_free_list()

    def test_alloc_reuses_freed_frames(self):
        pm = make_map(4, reserved=0)
        a = pm.alloc()
        pm.put_page(a)
        frames = {pm.alloc() for _ in range(4)}
        assert a in frames

    def test_orphan_query(self):
        pm = make_map()
        frame = pm.alloc()
        pm.get_page(frame)           # e.g. a driver reference
        pm.put_page(frame)           # "swap_out" drops the mapping ref
        pm.table.mappings[frame] = None
        assert pm.orphan_count() == 0
        pm.table.set_tag(frame, ORPHAN_TAG)
        assert pm.orphan_count() == 1
