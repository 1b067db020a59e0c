"""Tests for the simulated clock and cost model."""

import pytest

from repro.sim.clock import CalendarHook, SimClock
from repro.sim.costs import FREE, CostModel


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0

    def test_charge_advances(self):
        c = SimClock()
        c.charge(100, "a")
        c.charge(50, "b")
        assert c.now_ns == 150

    def test_now_us(self):
        c = SimClock()
        c.charge(2500)
        assert c.now_us == pytest.approx(2.5)

    def test_category_totals(self):
        c = SimClock()
        c.charge(100, "dma")
        c.charge(40, "dma")
        c.charge(7, "syscall")
        assert c.category_ns("dma") == 140
        assert c.category_ns("syscall") == 7
        assert c.category_ns("never") == 0
        assert c.categories() == {"dma": 140, "syscall": 7}

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge(-1)

    def test_zero_charge_records_nothing(self):
        c = SimClock()
        c.charge(0, "x")
        assert c.now_ns == 0
        assert c.categories() == {}

    def test_frozen_discards_charges(self):
        c = SimClock()
        with c.frozen():
            c.charge(1000, "setup")
        assert c.now_ns == 0
        c.charge(5, "real")
        assert c.now_ns == 5

    def test_frozen_nests(self):
        c = SimClock()
        with c.frozen():
            with c.frozen():
                c.charge(1)
            c.charge(2)
        c.charge(3)
        assert c.now_ns == 3

    def test_measure_span(self):
        c = SimClock()
        c.charge(10)
        with c.measure() as span:
            c.charge(25)
        c.charge(99)
        assert span.elapsed_ns == 25

    def test_reset(self):
        c = SimClock()
        c.charge(10, "x")
        c.reset()
        assert c.now_ns == 0
        assert c.categories() == {}


class TestHeadroom:
    """``headroom_ns()`` is how much one charge may add without
    dispatching the calendar (``None``: no charge can dispatch it)."""

    def test_none_on_empty_calendar(self):
        c = SimClock()
        assert c.headroom_ns() is None
        event = c.schedule_after(10, lambda now: None)
        c.charge(10)
        assert not event.pending
        assert c.headroom_ns() is None

    def test_none_while_frozen(self):
        c = SimClock()
        c.schedule_after(10, lambda now: None)
        with c.frozen():
            assert c.headroom_ns() is None
        assert c.headroom_ns() == 9

    def test_none_inside_a_firing_callback(self):
        c = SimClock()
        seen = []
        c.schedule_after(10, lambda now: seen.append(c.headroom_ns()))
        c.schedule_after(50, lambda now: None)
        c.charge(10)
        assert seen == [None]
        assert c.headroom_ns() == 39

    def test_zero_when_an_event_is_due(self):
        c = SimClock()
        c.charge(100)
        c.schedule_at(100, lambda now: None)
        assert c.headroom_ns() == 0
        c.schedule_at(40, lambda now: None)
        assert c.headroom_ns() == 0

    def test_tombstone_at_heap_top_still_bounds(self):
        c = SimClock()
        passes = []

        class Passes(CalendarHook):
            def pass_begin(self):
                passes.append(c.now_ns)

        c.add_calendar_hook(Passes())
        c.cancel(c.schedule_after(20, lambda now: None))
        c.schedule_after(100, lambda now: None)
        assert c.headroom_ns() == 19
        c.charge(20)
        assert passes == [20]         # the tombstone still opened a pass
        assert c.headroom_ns() == 79

    @pytest.mark.parametrize("delay", [1, 2, 7, 150, 1000])
    def test_charging_headroom_never_dispatches(self, delay):
        c = SimClock()
        c.charge(33)
        fired = []
        c.schedule_after(delay, fired.append)
        room = c.headroom_ns()
        c.charge(room)
        assert fired == []
        assert c.headroom_ns() == 0
        c.charge(1)
        assert fired == [33 + delay]


class TestCostModel:
    def test_memcpy_scales_with_bytes(self):
        m = CostModel()
        assert m.memcpy_ns(0) == 0
        assert m.memcpy_ns(1000) == int(m.memcpy_per_byte_ns * 1000)

    def test_dma_scales_with_bytes(self):
        m = CostModel()
        assert m.dma_ns(10_000) == int(m.dma_per_byte_ns * 10_000)

    def test_major_fault_dominated_by_disk(self):
        m = CostModel()
        assert (m.major_fault_base_ns + m.disk_io_page_ns
                > 100 * m.minor_fault_ns)

    def test_free_model_charges_nothing(self):
        assert FREE.memcpy_ns(10**6) == 0
        assert FREE.major_fault_base_ns + FREE.disk_io_page_ns == 0
        assert FREE.syscall_ns == 0
