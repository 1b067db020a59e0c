"""Event tracing.

A bounded ring buffer of structured events.  Subsystems emit events
("swap_out", "dma_write", "tpt_stale", ...) and tests/benchmarks assert on
them — e.g. E1 verifies that the refcount backend's failure is caused by a
``swap_out`` of a registered page, not by some unrelated path.  Records
are also the counted facts of :mod:`repro.obs.counters`, and a start
record with its done record is a span (:data:`repro.obs.SPAN_PAIRS`):
the Chrome trace export reads the ring, so :meth:`Trace.clear` drops
the spans with the records.

Two correctness properties the querying API guarantees:

* **Eviction is visible.**  The ring drops the oldest event when full;
  :meth:`Trace.dropped_count` says how many events of a kind were lost,
  and in strict mode (``Trace(..., strict=True)`` or ``trace.strict =
  True``) :meth:`Trace.of_kind`/:meth:`Trace.last` raise
  :class:`TraceEvicted` instead of silently returning a partial view.
  The default (non-strict) mode warns with :class:`TraceEvictionWarning`
  once per kind.
* **Details are immutable history.**  ``emit(frames=live_list)``
  snapshots the detail mapping at emission time (mutable container
  values — list/set/dict — are shallow-copied), so a caller mutating its
  object later cannot rewrite what the trace says happened at ``ts_ns``.
  Reads copy too: every :class:`TraceEvent` a query returns carries a
  fresh ``detail`` dict whose list/set/dict values are copies, so a
  reader mutating it cannot rewrite what later reads see either.

Each ring record is one flat tuple ``(ts_ns, kind, keys, *values)``.
``keys`` is the tuple of detail field names in emission order, interned
once per distinct shape in :attr:`Trace._shapes`, so every record of a
shape shares it; the values follow in the same order.  A reclaim storm
fills the 65 536-record ring, and a dict per record would cost several
times the values it holds.  Emission sits on hot paths such as reclaim,
so :class:`TraceEvent` objects and their dicts are built only when the
trace is read.

A fact the live analysis stream also watches is written through the
kernel's event hub, ``kernel.events.record(kind, **detail)`` (see
:mod:`repro.analysis.events`): this ``emit`` while nothing subscribes,
the same record plus a live publish otherwise.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Iterator

from repro.errors import ReproError
from repro.obs import Observability


class TraceEvicted(ReproError):
    """A strict-mode trace query touched a kind whose events were
    (partly) evicted from the ring — the result would be a lie."""


class TraceEvictionWarning(UserWarning):
    """A non-strict trace query returned a partial view: events of the
    queried kind were evicted from the ring."""


#: detail value types ``emit`` and the reads copy (exact types; a set
#: lookup is cheaper than scanning a tuple of types).  All three are
#: unhashable, so a record whose ``hash`` succeeds holds none of them:
#: one C-level hash clears the common record, and only a ``TypeError``
#: pays for the per-value scan.
_MUTABLE = frozenset((list, set, dict))


@dataclass(frozen=True)
class TraceEvent:
    """One traced event: a trace record, or a live analysis event."""

    ts_ns: int                 #: simulated timestamp
    kind: str                  #: event kind, e.g. ``"swap_out"``
    detail: dict = field(default_factory=dict)
    #: publishing machine (an event hub's label); None on trace reads
    host: str | None = None

    def __getitem__(self, key: str) -> Any:
        return self.detail[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Detail lookup with a default, like ``dict.get``."""
        return self.detail.get(key, default)


def _copy_mutables(detail: dict) -> None:
    """Replace the list/set/dict values of ``detail`` by copies."""
    for key, value in detail.items():
        if type(value) in _MUTABLE:
            detail[key] = value.copy()


def _event(record: tuple) -> TraceEvent:
    """The :class:`TraceEvent` of one ring record, with a fresh detail
    dict whose list/set/dict values are copies of the record's."""
    detail = dict(zip(record[2], record[3:]))
    try:
        hash(record)
    except TypeError:
        _copy_mutables(detail)
    return TraceEvent(record[0], record[1], detail)


class Trace:
    """Bounded event log with simple querying.

    ``maxlen`` bounds memory; experiments that need full history can set
    it high.  Emission is O(1); queries are linear scans (traces are short
    relative to simulation work).
    """

    def __init__(self, clock, maxlen: int = 65536,
                 strict: bool = False) -> None:
        self._clock = clock
        #: the (initially disabled) facade whose counters records feed
        #: and which reads its spans from this ring
        self.obs = Observability(self)
        #: flat ``(ts_ns, kind, keys, *values)`` records, oldest first;
        #: ``keys`` names the values and is one of :attr:`_shapes`
        self._events: Deque[tuple[Any, ...]] = deque(maxlen=maxlen)
        #: interned field-name tuples, one per distinct detail shape
        self._shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._counts: dict[str, int] = {}
        self._dropped: dict[str, int] = {}
        self._warned: set[str] = set()
        #: strict mode: queries raise :class:`TraceEvicted` instead of
        #: warning when the queried kind lost events to ring eviction
        self.strict = strict

    def emit(self, kind: str, **detail: Any) -> None:
        """Record an event, and count it while ``obs`` is enabled.

        The detail mapping is snapshotted: ``detail`` is already a fresh
        dict, and any list/set/dict values in it are replaced by copies,
        so the event's history is immune to later mutation of
        caller-owned objects.  The record stores the values flat, after
        the shape's interned field names.
        """
        keys = tuple(detail)
        keys = self._shapes.setdefault(keys, keys)
        record = (self._clock.now_ns, kind, keys, *detail.values())
        try:
            hash(record)
        except TypeError:
            _copy_mutables(detail)
            record = (record[0], kind, keys, *detail.values())
        events = self._events
        if len(events) == events.maxlen:
            evicted = events[0][1]
            self._dropped[evicted] = self._dropped.get(evicted, 0) + 1
        events.append(record)
        self._counts[kind] = self._counts.get(kind, 0) + 1
        obs = self.obs
        if obs.enabled:
            obs.count(kind, detail)

    # -- querying -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_event, self._events)

    def count(self, kind: str) -> int:
        """Total number of events of ``kind`` ever emitted (survives ring
        eviction)."""
        return self._counts.get(kind, 0)

    def dropped_count(self, kind: str) -> int:
        """How many events of ``kind`` were evicted from the ring —
        ``count(kind) - dropped_count(kind)`` is what queries can see."""
        return self._dropped.get(kind, 0)

    def _check_evicted(self, kind: str) -> None:
        dropped = self._dropped.get(kind, 0)
        if not dropped:
            return
        msg = (f"trace ring evicted {dropped} of {self.count(kind)} "
               f"{kind!r} events; queries see a partial view "
               f"(raise maxlen or clear() between phases)")
        if self.strict:
            raise TraceEvicted(msg)
        if kind not in self._warned:
            self._warned.add(kind)
            warnings.warn(msg, TraceEvictionWarning, stacklevel=3)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All retained events of ``kind``.

        If events of this kind were evicted, warns (once per kind) —
        or raises :class:`TraceEvicted` in strict mode — because the
        list is incomplete.
        """
        self._check_evicted(kind)
        return [_event(record) for record in self._events
                if record[1] == kind]

    def where(self, pred: Callable[[TraceEvent], bool]) -> list[TraceEvent]:
        """All retained events satisfying ``pred`` (retained only: events
        evicted from the ring are not consulted — check
        :meth:`dropped_count` for the kinds you care about)."""
        return [e for e in self if pred(e)]

    def last(self, kind: str) -> TraceEvent | None:
        """Most recent retained event of ``kind``, or None.

        Subject to the same eviction check as :meth:`of_kind`: a strict
        trace raises when earlier events of ``kind`` were evicted (the
        *most recent* is retained, but "None" would be wrong if all were
        evicted, so the check keeps both cases honest).
        """
        self._check_evicted(kind)
        for record in reversed(self._events):
            if record[1] == kind:
                return _event(record)
        return None

    def clear(self) -> None:
        """Start a fresh observation window: drop retained events AND
        reset the lifetime/eviction counters.

        After ``clear()``, :meth:`count` and :meth:`dropped_count` both
        report zero — the counters describe the window since the last
        clear, not the trace's whole life.  Use this between experiment
        phases so per-phase assertions are not polluted by setup events
        (and so strict mode does not trip on pre-phase evictions).
        """
        self._events.clear()
        self._counts.clear()
        self._dropped.clear()
        self._warned.clear()
