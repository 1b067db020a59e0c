"""Tests for the trace ring buffer."""

import copy
import random
import warnings
from collections import Counter

import pytest

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
        ev = t.last("swap_out")
        assert ev is not None
        assert ev.ts_ns == 42
        assert ev["frame"] == 7

    def test_of_kind_and_where(self):
        _, t = make()
        t.emit("k", v=1)
        t.emit("k", v=2)
        t.emit("other")
        assert [e["v"] for e in t.of_kind("k")] == [1, 2]
        assert len(t.where(lambda e: e.detail.get("v") == 2)) == 1

    def test_ring_eviction_keeps_counts(self):
        _, t = make()
        for i in range(20):
            t.emit("x", i=i)
        assert len(t) == 8            # ring evicted
        assert t.count("x") == 20     # counter did not

    def test_last_returns_none_when_absent(self):
        _, t = make()
        assert t.last("nope") is None

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

    def test_last_also_checks_eviction(self):
        _, t = make()
        for i in range(20):
            t.emit("x", i=i)
        with pytest.warns(TraceEvictionWarning):
            ev = t.last("x")
        assert ev is not None and ev["i"] == 19

    def test_strict_mode_raises_instead_of_warning(self):
        clock = SimClock()
        t = Trace(clock, maxlen=4, strict=True)
        for i in range(6):
            t.emit("x", i=i)
        with pytest.raises(TraceEvicted):
            t.of_kind("x")
        with pytest.raises(TraceEvicted):
            t.last("x")
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
        ev = t.last("swap")
        assert ev["frames"] == [1, 2, 3]

    def test_set_and_dict_values_are_copied(self):
        _, t = make()
        pins = {10, 11}
        owners = {"a": 1}
        t.emit("pin", pins=pins, owners=owners)
        pins.add(12)
        owners["b"] = 2
        ev = t.last("pin")
        assert ev["pins"] == {10, 11}
        assert ev["owners"] == {"a": 1}

    def test_scalars_and_unknown_types_pass_through(self):
        _, t = make()
        marker = object()
        t.emit("k", n=3, s="x", o=marker)
        ev = t.last("k")
        assert ev["n"] == 3 and ev["s"] == "x" and ev["o"] is marker


class TestRawRecords:
    """The ring stores raw ``(ts_ns, kind, detail)`` records and builds
    :class:`TraceEvent` objects on read: every read path must return
    exactly what was emitted, and eviction accounting must not change."""

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
            assert t.last(kind) == (mine[-1] if mine else None)
        assert t.where(lambda e: e["frame"] < 8) == \
            [e for e in emitted if e.detail["frame"] < 8]
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
            with pytest.raises(TraceEvicted):
                t.last(kind)
        t.emit("fresh", x=1)
        assert t.of_kind("fresh") == [TraceEvent(clock.now_ns, "fresh",
                                                 {"x": 1})]

    def test_detail_dict_passed_with_double_star_is_not_aliased(self):
        _, t = make()
        detail = {"frame": 3, "frames": [1]}
        t.emit("k", **detail)
        detail["frame"] = 4
        detail["frames"].append(2)
        assert t.last("k").detail == {"frame": 3, "frames": [1]}
