"""Tests for the swap device."""

import pytest

from repro.errors import BadSwapSlot, SwapFull
from repro.hw.physmem import PAGE_SIZE
from repro.hw.swapdev import SwapDevice
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel


def make(slots: int = 4) -> tuple[SwapDevice, SimClock]:
    clock = SimClock()
    return SwapDevice(slots, clock, CostModel()), clock


class TestSwapDevice:
    def test_alloc_free_cycle(self):
        dev, _ = make(2)
        a = dev.alloc_slot()
        b = dev.alloc_slot()
        assert a != b
        assert dev.slots_in_use == 2
        dev.free_slot(a)
        assert dev.slots_in_use == 1
        assert dev.num_slots - dev.slots_in_use == 1

    def test_exhaustion(self):
        dev, _ = make(1)
        dev.alloc_slot()
        with pytest.raises(SwapFull):
            dev.alloc_slot()

    def test_write_read_roundtrip(self):
        dev, _ = make()
        s = dev.alloc_slot()
        dev.write_page(s, b"swapped page")
        data = dev.read_page(s)
        assert data[:12] == b"swapped page"
        assert len(data) == PAGE_SIZE

    def test_io_charges_disk_cost(self):
        dev, clock = make()
        s = dev.alloc_slot()
        dev.write_page(s, b"x")
        dev.read_page(s)
        assert clock.category_ns("disk_io") == 2 * CostModel().disk_io_page_ns

    def test_io_counters(self):
        dev, _ = make()
        s = dev.alloc_slot()
        dev.write_page(s, b"x")
        dev.write_page(s, b"y")
        dev.read_page(s)
        assert dev.writes == 2
        assert dev.reads == 1

    def test_unallocated_slot_rejected(self):
        dev, _ = make()
        with pytest.raises(BadSwapSlot):
            dev.write_page(0, b"x")
        with pytest.raises(BadSwapSlot):
            dev.read_page(0)
        with pytest.raises(BadSwapSlot):
            dev.free_slot(0)

    def test_read_never_written_slot_rejected(self):
        dev, _ = make()
        s = dev.alloc_slot()
        with pytest.raises(BadSwapSlot):
            dev.read_page(s)

    def test_oversize_page_rejected(self):
        dev, _ = make()
        s = dev.alloc_slot()
        with pytest.raises(BadSwapSlot):
            dev.write_page(s, b"x" * (PAGE_SIZE + 1))

    def test_freed_slot_forgets_data(self):
        dev, _ = make()
        s = dev.alloc_slot()
        dev.write_page(s, b"old")
        dev.free_slot(s)
        s2 = dev.alloc_slot()
        assert s2 == s  # LIFO reuse
        with pytest.raises(BadSwapSlot):
            dev.read_page(s2)
