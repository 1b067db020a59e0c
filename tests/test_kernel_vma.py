"""Tests for VM areas and the VMA list (find/split/merge/lock)."""

import pytest

from repro.errors import InvalidArgument, SegmentationFault
from repro.kernel.flags import VM_LOCKED, VM_READ, VM_WRITE
from repro.kernel.vma import VMArea, VMAList

RW = VM_READ | VM_WRITE


def make(*ranges: tuple[int, int]) -> VMAList:
    vl = VMAList()
    for start, end in ranges:
        vl.insert(VMArea(start, end, RW))
    return vl


class TestVMArea:
    def test_npages_and_contains(self):
        a = VMArea(10, 20, RW)
        assert a.npages == 10
        assert a.contains(10) and a.contains(19)
        assert not a.contains(9) and not a.contains(20)

    def test_locked_property(self):
        assert not VMArea(0, 1, RW).locked
        assert VMArea(0, 1, RW | VM_LOCKED).locked


class TestVMAList:
    def test_find(self):
        vl = make((10, 20), (30, 40))
        assert vl.find(15).start_vpn == 10
        assert vl.find(30).start_vpn == 30
        assert vl.find(25) is None
        assert vl.find(40) is None

    def test_find_or_fault(self):
        vl = make((10, 20))
        assert vl.find_or_fault(10).start_vpn == 10
        with pytest.raises(SegmentationFault):
            vl.find_or_fault(99)

    def test_insert_rejects_overlap(self):
        vl = make((10, 20))
        with pytest.raises(InvalidArgument):
            vl.insert(VMArea(15, 25, RW))
        with pytest.raises(InvalidArgument):
            vl.insert(VMArea(5, 11, RW))

    def test_insert_rejects_empty(self):
        vl = VMAList()
        with pytest.raises(InvalidArgument):
            vl.insert(VMArea(5, 5, RW))

    def test_areas_in(self):
        vl = make((10, 20), (30, 40), (50, 60))
        hits = vl.areas_in(15, 35)
        assert [a.start_vpn for a in hits] == [10, 30]

    def test_covers(self):
        vl = make((10, 20), (20, 30))
        assert vl.covers(10, 30)
        assert vl.covers(12, 28)
        assert not vl.covers(5, 15)
        assert not vl.covers(25, 35)
        vl2 = make((10, 20), (25, 30))
        assert not vl2.covers(10, 30)  # hole at [20, 25)

    def test_split_at(self):
        vl = make((10, 20))
        assert vl.split_at(15)
        assert [(a.start_vpn, a.end_vpn) for a in vl] == [(10, 15), (15, 20)]
        assert not vl.split_at(15)   # boundary: no-op
        assert not vl.split_at(99)   # unmapped: no-op

    def test_split_range_counts(self):
        vl = make((10, 30))
        assert vl.split_range(15, 25) == 2
        assert vl.split_range(15, 25) == 0

    def test_set_flags_range_needs_prior_split(self):
        vl = make((10, 30))
        vl.split_range(15, 25)
        touched = vl.set_flags_range(15, 25, set_bits=VM_LOCKED)
        assert touched == 1
        assert vl.find(20).locked
        assert not vl.find(10).locked
        assert not vl.find(25).locked

    def test_clear_flags_range(self):
        vl = make((10, 20))
        vl.set_flags_range(10, 20, set_bits=VM_LOCKED)
        vl.set_flags_range(10, 20, clear_bits=VM_LOCKED)
        assert not vl.find(10).locked

    def test_merge_adjacent(self):
        vl = make((10, 30))
        vl.split_range(15, 25)
        assert len(vl) == 3
        merges = vl.merge_adjacent()
        assert merges == 2
        assert [(a.start_vpn, a.end_vpn) for a in vl] == [(10, 30)]

    def test_merge_respects_flags(self):
        vl = make((10, 30))
        vl.split_range(15, 25)
        vl.set_flags_range(15, 25, set_bits=VM_LOCKED)
        assert vl.merge_adjacent() == 0
        assert len(vl) == 3

    def test_remove_range_splits_boundaries(self):
        vl = make((10, 30))
        removed = vl.remove_range(15, 25)
        assert [(a.start_vpn, a.end_vpn) for a in removed] == [(15, 25)]
        assert [(a.start_vpn, a.end_vpn) for a in vl] == [(10, 15), (25, 30)]
