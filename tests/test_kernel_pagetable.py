"""Tests for page tables and PTEs."""

import random

from repro.kernel.pagetable import PTE, PageTable


class TestPTE:
    def test_default_not_present(self):
        pte = PTE()
        assert not pte.present
        assert not pte.swapped

    def test_swapped_state(self):
        pte = PTE(present=False, swap_slot=5)
        assert pte.swapped
        pte2 = PTE(present=True, frame=3, swap_slot=5)
        assert not pte2.swapped  # present wins


class TestPageTable:
    def test_lookup_missing(self):
        assert PageTable().lookup(7) is None

    def test_set_mapping(self):
        pt = PageTable()
        pte = pt.set_mapping(10, frame=3, writable=True)
        assert pte.present and pte.frame == 3 and pte.writable
        assert pte.accessed
        assert pt.lookup(10) is pte

    def test_set_swapped_clears_frame(self):
        pt = PageTable()
        pt.set_mapping(10, frame=3, writable=True)
        pte = pt.set_swapped(10, slot=42)
        assert not pte.present
        assert pte.frame == -1
        assert pte.swap_slot == 42
        assert pte.swapped

    def test_remapping_clears_swap_slot(self):
        pt = PageTable()
        pt.set_swapped(10, slot=42)
        pte = pt.set_mapping(10, frame=5, writable=False)
        assert pte.present and pte.swap_slot == -1

    def test_clear(self):
        pt = PageTable()
        pt.set_mapping(10, frame=3, writable=True)
        pt.clear(10)
        assert pt.lookup(10) is None
        pt.clear(10)  # idempotent

    def test_present_entries_sorted(self):
        pt = PageTable()
        pt.set_mapping(30, 1, True)
        pt.set_mapping(10, 2, True)
        pt.set_swapped(20, 0)
        vpns = [vpn for vpn, _ in pt.present_entries()]
        assert vpns == [10, 30]

    def test_resident_count(self):
        pt = PageTable()
        pt.set_mapping(1, 1, True)
        pt.set_mapping(2, 2, True)
        pt.set_swapped(3, 0)
        assert pt.resident_count() == 2
        assert len(pt) == 3


class TestSortedKeyCache:
    """Walks reuse a sorted-key cache; mutation must invalidate it."""

    def test_insert_after_walk_is_visible(self):
        pt = PageTable()
        pt.set_mapping(5, frame=1, writable=True)
        assert [vpn for vpn, _ in pt.present_entries()] == [5]
        pt.set_mapping(3, frame=2, writable=True)   # out of order
        assert [vpn for vpn, _ in pt.present_entries()] == [3, 5]

    def test_clear_after_walk_is_visible(self):
        pt = PageTable()
        for vpn in (8, 2, 5):
            pt.set_mapping(vpn, frame=vpn, writable=False)
        assert [v for v, _ in pt.present_entries()] == [2, 5, 8]
        pt.clear(5)
        assert [v for v, _ in pt.present_entries()] == [2, 8]

    def test_clear_of_missing_vpn_keeps_cache(self):
        pt = PageTable()
        pt.set_mapping(1, frame=1, writable=False)
        list(pt.present_entries())
        pt.clear(99)    # no entry — must not corrupt anything
        assert [v for v, _ in pt.present_entries()] == [1]

    def test_ensure_existing_entry_keeps_cache_valid(self):
        pt = PageTable()
        pt.set_mapping(4, frame=1, writable=False)
        list(pt.present_entries())
        pt.set_mapping(4, frame=2, writable=True)   # same vpn, re-map
        assert [v for v, _ in pt.present_entries()] == [4]
        assert pt.lookup(4).frame == 2


class TestResidentCounter:
    """``resident_count()`` is an O(1) counter kept by the three writers
    of ``PTE.present``; it must always equal a brute-force count."""

    @staticmethod
    def _brute_force(pt):
        return sum(1 for pte in pt._entries.values() if pte.present)

    def test_random_sequence_matches_brute_force(self):
        rng = random.Random(1234)
        pt = PageTable()
        for step in range(2000):
            vpn = rng.randrange(48)
            op = rng.randrange(5)
            if op == 0:
                pt.set_mapping(vpn, frame=step, writable=True)
            elif op == 1:
                # Re-map an existing entry (present or not) in place.
                if pt.lookup(vpn) is not None:
                    pt.set_mapping(vpn, frame=step, writable=False)
            elif op == 2:
                pt.set_swapped(vpn, slot=step)
            elif op == 3:
                pt.clear(vpn)
            else:
                pt.ensure(vpn)
            assert pt.resident_count() == self._brute_force(pt), step

    def test_remap_of_present_entry_counts_once(self):
        pt = PageTable()
        pt.set_mapping(3, frame=1, writable=True)
        pt.set_mapping(3, frame=2, writable=True)
        assert pt.resident_count() == 1
        pt.set_swapped(3, slot=0)
        pt.set_swapped(3, slot=1)
        assert pt.resident_count() == 0
        pt.clear(3)
        assert pt.resident_count() == 0


class TestPresentEntriesFromHand:
    """``present_entries(start_vpn)`` walks upward from the hand, then
    wraps to the entries below it; non-present entries are skipped."""

    @staticmethod
    def _table():
        pt = PageTable()
        for vpn in (10, 20, 30, 40):
            pt.set_mapping(vpn, frame=vpn, writable=True)
        pt.set_swapped(25, slot=0)      # in the table, not present
        return pt

    def _walk(self, start):
        return [vpn for vpn, _ in self._table().present_entries(start)]

    def test_start_below_lowest_vpn(self):
        assert self._walk(0) == [10, 20, 30, 40]
        assert self._walk(5) == [10, 20, 30, 40]

    def test_start_in_a_gap(self):
        assert self._walk(15) == [20, 30, 40, 10]
        assert self._walk(25) == [30, 40, 10, 20]   # on a swapped entry

    def test_start_on_an_entry(self):
        assert self._walk(30) == [30, 40, 10, 20]

    def test_start_past_highest_vpn(self):
        assert self._walk(41) == [10, 20, 30, 40]

    def test_default_start_is_ascending(self):
        assert self._walk(0) == [vpn for vpn, _ in
                                 self._table().present_entries()]
