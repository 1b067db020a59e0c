"""Tests for the trace ring buffer."""

import copy
import random
import tracemalloc
import warnings
from collections import Counter

import pytest

from repro.kernel.kernel import Kernel
from repro.sim.clock import SimClock
from repro.sim.trace import (
    Trace, TraceEvent, TraceEvicted, TraceEvictionWarning,
)


def make() -> tuple[SimClock, Trace]:
    clock = SimClock()
    return clock, Trace(clock, maxlen=8)


class TestTrace:
    def test_emit_and_count(self):
        clock, t = make()
        t.emit("a", x=1)
        t.emit("a", x=2)
        t.emit("b")
        assert t.count("a") == 2
        assert t.count("b") == 1
        assert t.count("c") == 0
        assert len(t) == 3

    def test_events_carry_timestamp_and_detail(self):
        clock, t = make()
        clock.charge(42)
        t.emit("swap_out", frame=7)
        ev = t.of_kind("swap_out")[-1]
        assert ev.ts_ns == 42
        assert ev["frame"] == 7

    def test_of_kind(self):
        _, t = make()
        t.emit("k", v=1)
        t.emit("k", v=2)
        t.emit("other")
        assert [e["v"] for e in t.of_kind("k")] == [1, 2]

    def test_ring_eviction_keeps_counts(self):
        _, t = make()
        for i in range(20):
            t.emit("x", i=i)
        assert len(t) == 8            # ring evicted
        assert t.count("x") == 20     # counter did not

    def test_clear(self):
        _, t = make()
        t.emit("x")
        t.clear()
        assert len(t) == 0
        assert t.count("x") == 0


class TestEvictionVisibility:
    """Regression: ring eviction used to be silent — ``of_kind`` would
    return a partial list with nothing to tell it apart from a full one."""

    def test_dropped_count_tracks_evictions_per_kind(self):
        _, t = make()
        for i in range(12):
            t.emit("x", i=i)
        t.emit("y")
        # maxlen=8: 13 emits → 5 evictions, all of kind "x".
        assert t.dropped_count("x") == 5
        assert t.dropped_count("y") == 0
        assert t.count("x") - t.dropped_count("x") == \
            len([e for e in t if e.kind == "x"])

    def test_of_kind_warns_once_per_kind_on_partial_view(self):
        _, t = make()
        for i in range(20):
            t.emit("x", i=i)
        with pytest.warns(TraceEvictionWarning, match="evicted 12 of 20"):
            events = t.of_kind("x")
        assert len(events) == 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # second query: no re-warn
            t.of_kind("x")

    def test_strict_mode_raises_instead_of_warning(self):
        clock = SimClock()
        t = Trace(clock, maxlen=4, strict=True)
        for i in range(6):
            t.emit("x", i=i)
        with pytest.raises(TraceEvicted):
            t.of_kind("x")
        # Unevicted kinds stay queryable.
        t.emit("y")
        assert t.of_kind("y")

    def test_unaffected_kind_does_not_warn(self):
        _, t = make()
        for i in range(20):
            t.emit("x", i=i)
        t.emit("y")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(t.of_kind("y")) == 1

    def test_clear_resets_eviction_state(self):
        _, t = make()
        for i in range(20):
            t.emit("x", i=i)
        t.clear()
        assert t.dropped_count("x") == 0
        t.emit("x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # warn-once memory also reset
            assert len(t.of_kind("x")) == 1


class TestDetailSnapshot:
    """Regression: ``TraceEvent.detail`` used to alias caller-owned
    mutables — mutating the list after ``emit`` rewrote history."""

    def test_dict_mutation_after_emit_is_invisible(self):
        _, t = make()
        detail_frames = [1, 2, 3]
        t.emit("swap", frames=detail_frames, pid=9)
        detail_frames.append(4)
        ev = t.of_kind("swap")[-1]
        assert ev["frames"] == [1, 2, 3]

    def test_set_and_dict_values_are_copied(self):
        _, t = make()
        pins = {10, 11}
        owners = {"a": 1}
        t.emit("pin", pins=pins, owners=owners)
        pins.add(12)
        owners["b"] = 2
        ev = t.of_kind("pin")[-1]
        assert ev["pins"] == {10, 11}
        assert ev["owners"] == {"a": 1}

    def test_scalars_and_unknown_types_pass_through(self):
        _, t = make()
        marker = object()
        t.emit("k", n=3, s="x", o=marker)
        ev = t.of_kind("k")[-1]
        assert ev["n"] == 3 and ev["s"] == "x" and ev["o"] is marker


class TestRawRecords:
    """The ring stores flat ``(ts_ns, kind, keys, *values)`` records and
    builds :class:`TraceEvent` objects on read: every read path must
    return exactly what was emitted, and eviction accounting must not
    change."""

    @staticmethod
    def _emit_seeded(t, clock, n, seed=0):
        rng = random.Random(seed)
        emitted, passed = [], []
        for i in range(n):
            clock.charge(rng.randrange(0, 50))
            kind = rng.choice(("swap_out", "swap_skip", "dma", "pin"))
            detail = {"i": i, "frame": rng.randrange(64)}
            if rng.random() < 0.5:
                detail["frames"] = [rng.randrange(64) for _ in range(3)]
                detail["owners"] = {"pid": i}
                detail["pins"] = {i, i + 1}
                passed.append(detail)
            emitted.append(TraceEvent(clock.now_ns, kind,
                                      copy.deepcopy(detail)))
            t.emit(kind, **detail)
        for detail in passed:            # caller-side mutation afterwards
            detail["frames"].append(-1)
            detail["owners"]["pid"] = -1
            detail["pins"].add(-1)
            detail["i"] = -1
        return emitted

    def test_read_paths_equal_emitted_events(self):
        clock = SimClock()
        t = Trace(clock, maxlen=1000)
        emitted = self._emit_seeded(t, clock, 300)
        assert list(t) == emitted
        for kind in ("swap_out", "swap_skip", "dma", "pin", "none"):
            mine = [e for e in emitted if e.kind == kind]
            assert t.of_kind(kind) == mine
        for got in t:
            assert type(got) is TraceEvent

    def test_eviction_accounting_after_wrap(self):
        clock = SimClock()
        t = Trace(clock, maxlen=50)
        emitted = self._emit_seeded(t, clock, 173, seed=3)
        evicted = Counter(e.kind for e in emitted[:-50])
        for kind in ("swap_out", "swap_skip", "dma", "pin"):
            assert t.count(kind) == sum(e.kind == kind for e in emitted)
            assert t.dropped_count(kind) == evicted[kind]
        assert list(t) == emitted[-50:]
        t.strict = True
        for kind in evicted:
            with pytest.raises(TraceEvicted):
                t.of_kind(kind)
        t.emit("fresh", x=1)
        assert t.of_kind("fresh") == [TraceEvent(clock.now_ns, "fresh",
                                                 {"x": 1})]

    def test_detail_dict_passed_with_double_star_is_not_aliased(self):
        _, t = make()
        detail = {"frame": 3, "frames": [1]}
        t.emit("k", **detail)
        detail["frame"] = 4
        detail["frames"].append(2)
        assert t.of_kind("k")[-1].detail == {"frame": 3, "frames": [1]}


class TestReadCopies:
    """Regression: every read used to share the ring's detail dict, so a
    reader mutating an event rewrote what every later read returned."""

    def test_mutating_a_read_event_leaves_the_ring_unchanged(self):
        _, t = make()
        t.emit("x", a=1, frames=[1, 2], pins={3}, owners={"p": 1})
        for read in (lambda: t.of_kind("x")[0], lambda: next(iter(t))):
            e = read()
            e.detail["a"] = 5
            e.detail["frames"].append(9)
            e.detail["pins"].add(9)
            e.detail["owners"]["q"] = 2
            e.detail["extra"] = True
        assert t.of_kind("x")[-1].detail == {
            "a": 1, "frames": [1, 2], "pins": {3}, "owners": {"p": 1}}

    def test_each_read_gets_its_own_dict(self):
        _, t = make()
        t.emit("x", a=1)
        first, second = t.of_kind("x")[0], t.of_kind("x")[0]
        assert first == second
        assert first.detail is not second.detail


#: the reclaim mix that fills odp_pressure's ring, one record each
def _reclaim_mix(t, clock, n):
    for i in range(n):
        clock.charge(1_000)
        vpn, frame = 0x40000 + i, 1_000 + i % 7_000
        shape = i % 3
        if shape == 0:
            t.emit("swap_out", pid=100 + i % 8, vpn=vpn, frame=frame,
                   slot=50_000 + i, refs_before=1, freed=True,
                   actor="reclaim")
        elif shape == 1:
            t.emit("swap_in", pid=100 + i % 8, vpn=vpn, frame=frame,
                   slot=50_000 + i)
        else:
            t.emit("frame_freed", frame=frame)


class TestFlatRecords:
    """Each record is one flat tuple after an interned field-name tuple;
    the shapes a kind is emitted with must each round-trip."""

    def test_key_orders_and_optional_fields_round_trip(self):
        clock, t = make()
        t.emit("dma", frame=1, length=64)
        t.emit("dma", length=128, frame=2)
        t.emit("dma", frame=3, length=256, fault=True)
        t.emit("dma")
        got = [e.detail for e in t.of_kind("dma")]
        assert got == [{"frame": 1, "length": 64},
                       {"length": 128, "frame": 2},
                       {"frame": 3, "length": 256, "fault": True},
                       {}]
        assert [list(d) for d in got] == [["frame", "length"],
                                         ["length", "frame"],
                                         ["frame", "length", "fault"],
                                         []]

    def test_intern_table_holds_one_entry_per_shape(self):
        clock = SimClock()
        t = Trace(clock, maxlen=1_000)
        rng = random.Random(7)
        shapes = set()
        for i in range(100_000):
            fields = rng.sample("abcde", rng.randrange(0, 3))
            shapes.add(tuple(fields))
            t.emit("k", **{f: i for f in fields})
        assert t.count("k") == 100_000
        assert len(t._shapes) <= len(shapes)
        assert all(record[2] is t._shapes[record[2]]
                   for record in t._events)

    def test_eviction_accounting_spans_shapes(self):
        clock = SimClock()
        t = Trace(clock, maxlen=30)
        _reclaim_mix(t, clock, 100)
        # 100 records, 70 evicted: the first 70 of the i % 3 rotation.
        assert [t.count(k) for k in ("swap_out", "swap_in",
                                     "frame_freed")] == [34, 33, 33]
        assert [t.dropped_count(k) for k in ("swap_out", "swap_in",
                                             "frame_freed")] == \
            [24, 23, 23]
        with pytest.warns(TraceEvictionWarning, match="23 of 33"):
            freed = t.of_kind("frame_freed")
        assert [e["frame"] for e in freed] == \
            [1_000 + i for i in range(71, 100, 3)]
        t.strict = True
        for kind in ("swap_out", "swap_in", "frame_freed"):
            with pytest.raises(TraceEvicted):
                t.of_kind(kind)
        t.clear()
        assert len(t) == 0 and t.count("swap_out") == 0
        assert t.dropped_count("swap_out") == 0
        _reclaim_mix(t, clock, 3)
        assert t.of_kind("swap_out")[-1]["actor"] == "reclaim"
        assert t.of_kind("swap_in")[-1].detail == {
            "pid": 101, "vpn": 0x40001, "frame": 1_001, "slot": 50_001}

    def test_table_counter_equals_its_tally_after_eviction(self):
        """``kernel.paging.swap_outs`` comes from the counter table; it
        must equal the swap device's write tally while the ring, full of
        several record shapes, evicts."""
        clock = SimClock()
        kernel = Kernel(num_frames=64, clock=clock,
                        trace=Trace(clock, maxlen=32))
        kernel.obs.enable()
        task = kernel.create_task()
        va = task.mmap(160)
        task.touch_pages(va, 160)
        for i in range(160):
            task.read(va + i * 4096, 1)
        trace = kernel.trace
        assert trace.dropped_count("swap_out") > 0
        assert trace.count("swap_in") > 0
        swap_outs = kernel.obs.counter("kernel.paging.swap_outs").value
        assert swap_outs == kernel.swap.writes == trace.count("swap_out")

    def test_full_reclaim_ring_retention(self):
        """65 536 reclaim records retain about 13 MiB; with a detail
        dict per record they took about 24.5 MiB."""
        clock = SimClock()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            t = Trace(clock)
            _reclaim_mix(t, clock, 65_536)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(t) == 65_536
        assert retained <= 16 * 2**20, retained / 2**20
