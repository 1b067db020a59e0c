"""Tests for the DMA engine — including its deliberate lack of checks."""

import pytest

from repro.errors import BadPhysicalAddress
from repro.hw.dma import DMAEngine
from repro.hw.physmem import PAGE_SIZE, PhysicalMemory
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.trace import Trace


def make(frames: int = 4):
    clock = SimClock()
    trace = Trace(clock)
    phys = PhysicalMemory(frames)
    return DMAEngine(phys, clock, CostModel(), trace), phys, clock, trace


class TestDMAEngine:
    def test_write_then_read(self):
        dma, phys, _, _ = make()
        dma.write(100, b"dma payload")
        assert dma.read(100, 11) == b"dma payload"

    def test_transfer_crossing_frames(self):
        dma, phys, _, _ = make()
        addr = PAGE_SIZE - 3
        dma.write(addr, b"abcdef")
        assert phys.read(0, PAGE_SIZE - 3, 3) == b"abc"
        assert phys.read(1, 0, 3) == b"def"
        assert dma.read(addr, 6) == b"abcdef"

    def test_counters(self):
        dma, _, _, _ = make()
        dma.write(0, b"12345")
        dma.read(0, 2)
        assert dma.bytes_written == 5
        assert dma.bytes_read == 2

    def test_costs_charged(self):
        dma, _, clock, _ = make()
        m = CostModel()
        dma.write(0, b"x" * 1000)
        expected = m.dma_setup_ns + m.dma_ns(1000)
        assert clock.category_ns("dma") == expected

    def test_trace_events(self):
        dma, _, _, trace = make()
        dma.write(64, b"x")
        dma.read(64, 1)
        assert trace.count("dma_write") == 1
        assert trace.count("dma_read") == 1
        assert trace.of_kind("dma_write")[-1]["phys_addr"] == 64

    def test_no_validity_check_beyond_ram_bounds(self):
        """The engine writes wherever it is pointed — the property the
        paper's staleness failure depends on."""
        dma, phys, _, _ = make()
        # Frame 3 is mapped by nobody, yet DMA happily lands there.
        dma.write(3 * PAGE_SIZE, b"stale!")
        assert phys.read(3, 0, 6) == b"stale!"

    def test_out_of_ram_faults(self):
        dma, _, _, _ = make(2)
        with pytest.raises(BadPhysicalAddress):
            dma.write(2 * PAGE_SIZE, b"x")
        with pytest.raises(BadPhysicalAddress):
            dma.read(2 * PAGE_SIZE - 1, 2)  # starts inside, runs out

    def test_gather_read(self):
        dma, phys, _, _ = make()
        phys.write(0, 0, b"AA")
        phys.write(2, 10, b"BB")
        data = dma.read_gather([(0, 2), (2 * PAGE_SIZE + 10, 2)])
        assert data == b"AABB"

    def test_scatter_write(self):
        dma, phys, _, _ = make()
        dma.write_scatter([(5, 3), (PAGE_SIZE + 1, 2)], b"abcde")
        assert phys.read(0, 5, 3) == b"abc"
        assert phys.read(1, 1, 2) == b"de"

    def test_scatter_length_mismatch(self):
        dma, _, _, _ = make()
        with pytest.raises(ValueError):
            dma.write_scatter([(0, 2)], b"abc")


class TestBurstCoalescing:
    def test_coalesce_runs_merges_adjacent(self):
        runs = DMAEngine.coalesce_runs(
            [(0, 4), (4, 4), (8, 2), (100, 4), (104, 1)])
        assert runs == [(0, 10), (100, 5)]

    def test_coalesce_runs_skips_empty_segments(self):
        assert DMAEngine.coalesce_runs([(0, 2), (2, 0), (2, 2)]) \
            == [(0, 4)]

    def test_gather_equivalence_with_legacy(self):
        """A coalesced gather reads what one engine read per segment
        (the pre-coalescing behaviour) reads."""
        dma, phys, _, _ = make()
        phys.write(0, PAGE_SIZE - 2, b"ab")
        phys.write(1, 0, b"cd")
        segs = [(PAGE_SIZE - 2, 2), (PAGE_SIZE, 2)]
        per_segment = b"".join(dma.read(addr, n) for addr, n in segs)
        assert dma.read_gather(segs) == per_segment == b"abcd"

    def test_scatter_equivalence_with_legacy(self):
        """A coalesced scatter lands what one engine write per segment
        lands."""
        dma, phys, _, _ = make()
        segs = [(PAGE_SIZE - 2, 2), (PAGE_SIZE, 2)]
        dma.write_scatter(segs, b"abcd")
        fast = phys.read_iovec([(PAGE_SIZE - 2, 4)])
        pos = 0
        for addr, n in segs:
            dma.write(addr, b"wxyz"[pos:pos + n])
            pos += n
        assert fast == b"abcd"
        assert phys.read_iovec([(PAGE_SIZE - 2, 4)]) == b"wxyz"

    def test_adjacent_segments_are_one_burst(self):
        dma, phys, _, _ = make()
        segs = [(0, 4), (4, 4), (8, 4)]
        dma.read_gather(segs)
        assert dma.bursts_issued == 1
        dma.write_scatter([(0, 4), (100, 4)], b"x" * 8)
        assert dma.bursts_issued == 3     # 1 + 2

    def test_burst_costs_charged(self):
        dma, _, clock, _ = make()
        m = CostModel()
        dma.read_gather([(0, 4), (100, 4)])   # two runs
        expected = m.dma_setup_ns + m.dma_burst_ns + m.dma_ns(8)
        assert clock.category_ns("dma") == expected
