"""Tests for page descriptors and the page map."""

import pytest

from repro.errors import OutOfMemory, PageAccountingError
from repro.kernel.flags import PG_LOCKED, PG_REFERENCED, PG_RESERVED
from repro.kernel.page import FrameTable, PageDescriptor
from repro.kernel.pagemap import PageMap
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.trace import Trace


def view() -> PageDescriptor:
    """A descriptor over a fresh one-frame table."""
    return PageDescriptor.bound(FrameTable(1), 0)


class TestPageDescriptor:
    def test_initially_free(self):
        pd = view()
        assert pd.free
        assert not pd.pinned

    def test_flag_helpers(self):
        pd = view()
        pd.set_flag(PG_LOCKED)
        assert pd.locked
        pd.set_flag(PG_RESERVED)
        assert pd.reserved and pd.locked
        pd.clear_flag(PG_LOCKED)
        assert not pd.locked and pd.reserved
        pd.set_flag(PG_REFERENCED)
        assert pd.referenced

    def test_get_put(self):
        pd = view()
        pd.get()
        pd.get()
        assert pd.count == 2
        assert pd.put() == 1
        assert pd.put() == 0

    def test_put_underflow(self):
        pd = view()
        with pytest.raises(PageAccountingError):
            pd.put()

    def test_pin_unpin(self):
        pd = view()
        pd.pin()
        pd.pin()
        assert pd.pinned and pd.pin_count == 2
        pd.unpin()
        pd.unpin()
        assert not pd.pinned

    def test_unpin_underflow(self):
        pd = view()
        with pytest.raises(PageAccountingError):
            pd.unpin()


def make_map(n: int = 8, reserved: int = 2) -> PageMap:
    clock = SimClock()
    return PageMap(n, clock, CostModel(), Trace(clock), reserved_frames=reserved)


class TestPageMap:
    def test_reserved_frames_marked_and_unallocatable(self):
        pm = make_map(8, reserved=2)
        assert pm.page(0).reserved and pm.page(1).reserved
        assert pm.free_count == 6
        seen = {pm.alloc().frame for _ in range(6)}
        assert 0 not in seen and 1 not in seen

    def test_alloc_sets_fresh_state(self):
        pm = make_map()
        pd = pm.alloc(tag="t")
        assert pd.count == 1
        assert pd.flags == 0
        assert pd.pin_count == 0
        assert pd.tag == "t"

    def test_alloc_exhaustion(self):
        pm = make_map(4, reserved=0)
        for _ in range(4):
            pm.alloc()
        with pytest.raises(OutOfMemory):
            pm.alloc()

    def test_put_frees_only_at_zero(self):
        pm = make_map()
        pd = pm.alloc()
        pm.get_page(pd.frame)
        assert pm.put_page(pd.frame) is False   # still referenced
        assert pm.put_page(pd.frame) is True    # now freed
        assert pm.free_count == 6

    def test_get_page_on_free_frame_rejected(self):
        pm = make_map()
        pd = pm.alloc()
        pm.put_page(pd.frame)
        with pytest.raises(PageAccountingError):
            pm.get_page(pd.frame)

    def test_freeing_pinned_frame_is_accounting_error(self):
        pm = make_map()
        pd = pm.alloc()
        pd.pin()
        with pytest.raises(PageAccountingError):
            pm.put_page(pd.frame)

    def test_free_list_invariant_check(self):
        pm = make_map()
        pm.check_free_list()   # healthy map passes
        pd = pm.alloc()
        pm.put_page(pd.frame)
        pm.check_free_list()

    def test_alloc_reuses_freed_frames(self):
        pm = make_map(4, reserved=0)
        a = pm.alloc().frame
        pm.put_page(a)
        frames = {pm.alloc().frame for _ in range(4)}
        assert a in frames

    def test_orphan_query(self):
        pm = make_map()
        pd = pm.alloc()
        pm.get_page(pd.frame)        # e.g. a driver reference
        pm.put_page(pd.frame)        # "swap_out" drops the mapping ref
        pd.mapping = None
        pd.tag = "orphan"
        assert pd in pm.orphans()
