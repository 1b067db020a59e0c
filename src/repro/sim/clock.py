"""Simulated-time accounting.

All timing the benchmarks report comes from :class:`SimClock`, a simple
monotonically increasing nanosecond counter that subsystems *charge* as
they perform work.  This keeps benchmark shapes deterministic and
host-independent: a registration of N pages always costs exactly
``N * (page_walk + tpt_update) + syscall`` simulated nanoseconds, so the
linear-in-pages shape the paper's evaluation depends on cannot be washed
out by interpreter noise.  (pytest-benchmark additionally measures real
host time of the whole simulation; see ``benchmarks/``.)

Periodic work (the orphan reaper, the invariant watchdog, fault timers)
rides on the clock through the **event calendar**: a lazy min-heap of
``(deadline_ns, seq, event)`` entries.  :meth:`SimClock.schedule_at` /
:meth:`SimClock.schedule_after` are O(log n); cancellation is O(1)
(events are tombstoned in place and dropped when they surface);
:meth:`SimClock.charge` pays a single O(1) heap peek when nothing is
due.  Callbacks run *during* the charge that crosses their deadline,
so a single large charge may deliver ``now_ns`` well past the deadline —
periodic daemons are expected to fire once and realign their next
deadline from ``now_ns`` (catch-up semantics; see
``OrphanReaper._on_event``).

Two extension points exist for the analysis layer (``repro.analysis``):

* **Seeded tie-break permutation** — by default, same-deadline events
  dispatch FIFO (by schedule order).  :meth:`SimClock.set_tiebreak`
  installs a seed that permutes same-deadline ties deterministically
  (:func:`tiebreak_key`), which is how the schedule explorer
  (``repro.analysis.explore``) enumerates alternative legal schedules.
  ``set_tiebreak(None)`` is the identity: FIFO order is preserved
  exactly.
* **Calendar hooks** — :meth:`SimClock.add_calendar_hook` registers a
  :class:`CalendarHook` observing scheduling and dispatch
  (``scheduled``/``pass_begin``/``fire_begin``/``fire_end``), and
  :attr:`SimClock.current_firing` names the callback currently running.
  The happens-before race engine uses these to attribute events to
  execution contexts and to build calendar causality edges.  With no
  hooks installed the dispatch path pays one truthiness test per event.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Callable, Iterator

_MASK64 = (1 << 64) - 1


def tiebreak_key(seed: int, seq: int) -> int:
    """Deterministic 64-bit mix of ``(seed, seq)`` (splitmix64-style).

    Used as the secondary heap key for same-deadline calendar events
    when a tie-break seed is installed (:meth:`SimClock.set_tiebreak`):
    different seeds yield different — but fully reproducible —
    permutations of every tie group.  Pure function of its arguments, so
    the schedule explorer can *predict* the permutation a seed induces
    on a recorded tie group without re-running the simulation (the
    DPOR-lite pruning step relies on this).
    """
    x = (seq * 0x9E3779B97F4A7C15 + (seed + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class CalendarHook:
    """Observer interface for the event calendar (all methods no-ops).

    Subclass and override what you need; install with
    :meth:`SimClock.add_calendar_hook`.  Hooks must not schedule or
    cancel events from ``fire_begin``/``fire_end`` — they observe.
    """

    def scheduled(self, event: "ScheduledEvent") -> None:
        """``event`` was just pushed onto the calendar."""

    def pass_begin(self) -> None:
        """A dispatch pass is starting (at least one event is due)."""

    def fire_begin(self, event: "ScheduledEvent") -> None:
        """``event``'s callback is about to run."""

    def fire_end(self, event: "ScheduledEvent") -> None:
        """``event``'s callback returned (or raised)."""


class ScheduledEvent:
    """Handle for one entry in the event calendar.

    Returned by :meth:`SimClock.schedule_at`; cancel it with
    :meth:`SimClock.cancel` and read :attr:`pending`.  Handles outlive
    :meth:`SimClock.reset`: a stale handle is simply no longer pending
    and cancelling it is a no-op.
    """

    __slots__ = ("deadline_ns", "seq", "fn", "name", "_fired", "_cancelled")

    def __init__(self, deadline_ns: int, seq: int,
                 fn: Callable[[int], None], name: str) -> None:
        self.deadline_ns = deadline_ns
        self.seq = seq
        self.fn = fn
        self.name = name
        self._fired = False
        self._cancelled = False

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and neither fired nor
        cancelled."""
        return not (self._fired or self._cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("fired" if self._fired
                 else "cancelled" if self._cancelled else "pending")
        return (f"ScheduledEvent({self.name or self.fn!r} "
                f"@{self.deadline_ns}ns, {state})")


class SimClock:
    """A monotonically increasing simulated-time counter (nanoseconds).

    The clock also keeps per-category totals so experiments can report
    *where* time went (syscall overhead vs disk I/O vs DMA), which is how
    the paper argues about "expensive page-in operations during
    communication".
    """

    def __init__(self) -> None:
        self._now_ns: int = 0
        self._by_category: dict[str, int] = {}
        self._frozen = False
        #: event calendar: lazy min-heap of (deadline_ns, tiekey, seq,
        #: event) — tiekey is 0 (FIFO identity) unless a tie-break seed
        #: is installed (see :meth:`set_tiebreak`)
        self._events: list[tuple[int, int, int, ScheduledEvent]] = []
        self._seq = 0
        self._tombstones = 0
        self._dispatching = False
        self._tiebreak_seed: int | None = None
        #: the calendar callback currently executing, if any — analysis
        #: code reads this to attribute work to an execution context
        self.current_firing: ScheduledEvent | None = None
        self._calendar_hooks: list[CalendarHook] = []

    # -- reading ----------------------------------------------------------

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self._now_ns / 1000.0

    def category_ns(self, category: str) -> int:
        """Total nanoseconds charged under ``category`` (0 if never used)."""
        return self._by_category.get(category, 0)

    def categories(self) -> dict[str, int]:
        """A copy of the per-category totals."""
        return dict(self._by_category)

    # -- charging ---------------------------------------------------------

    def charge(self, ns: int, category: str = "uncategorized") -> None:
        """Advance the clock by ``ns`` nanoseconds.

        ``ns`` must be non-negative; a zero charge is legal and records
        nothing.  While the clock is frozen (see :meth:`frozen`) charges
        are ignored — used by setup code that should not pollute
        measurements — and consequently no calendar events fire.

        After advancing, calendar events whose deadline has been reached
        are dispatched in deadline order (FIFO among ties).  Dispatch is
        non-reentrant: work a callback performs charges the clock too,
        but never recursively re-enters dispatch — the outer loop picks
        up anything that became due.
        """
        if ns < 0:
            raise ValueError(f"cannot charge negative time: {ns}")
        if self._frozen or ns == 0:
            return
        self._now_ns += ns
        self._by_category[category] = self._by_category.get(category, 0) + ns
        # O(1) peek: the common case is that nothing is due.
        events = self._events
        if events and events[0][0] <= self._now_ns and not self._dispatching:
            self._dispatch()

    def headroom_ns(self) -> int | None:
        """How many ns one :meth:`charge` can add without dispatching the
        calendar, or ``None`` when no charge can dispatch it now: the
        clock is frozen, a dispatch pass is already running, or the
        calendar is empty.

        The bound is the heap top, tombstones included: a charge that
        reaches a cancelled event's deadline still starts a dispatch
        pass, and calendar hooks observe its ``pass_begin``.  ``0``
        means something is already due.  Callers that batch several
        charges into one (``shrink_mmap``'s scan runs) stay within this
        bound, so every callback fires at the same charge and the same
        ``now_ns`` as with one charge per step.
        """
        events = self._events
        if self._frozen or self._dispatching or not events:
            return None
        return max(0, events[0][0] - self._now_ns - 1)

    def _dispatch(self) -> None:
        """Pop and run every event whose deadline has passed.

        Callbacks may charge the clock (advancing ``now_ns``) and may
        schedule or cancel events; the loop re-evaluates the heap top
        each iteration, so an event that becomes due *during* dispatch
        fires in the same pass.
        """
        events = self._events
        self._dispatching = True
        if self._calendar_hooks:
            for hook in tuple(self._calendar_hooks):
                hook.pass_begin()
        try:
            while events and events[0][0] <= self._now_ns:
                _, _, _, event = heapq.heappop(events)
                if event._cancelled:
                    self._tombstones -= 1
                    continue
                event._fired = True
                if self._calendar_hooks:
                    hooks = tuple(self._calendar_hooks)
                    self.current_firing = event
                    for hook in hooks:
                        hook.fire_begin(event)
                    try:
                        event.fn(self._now_ns)
                    finally:
                        self.current_firing = None
                        for hook in hooks:
                            hook.fire_end(event)
                else:
                    event.fn(self._now_ns)
        finally:
            self._dispatching = False

    # -- the event calendar ------------------------------------------------

    def schedule_at(self, deadline_ns: int, fn: Callable[[int], None],
                    *, name: str = "") -> ScheduledEvent:
        """Schedule ``fn(now_ns)`` to run once the clock reaches
        ``deadline_ns``.

        O(log n).  The callback runs during the :meth:`charge` that
        crosses the deadline — with ``now_ns`` possibly *past* it, if a
        single charge jumped several intervals (callers wanting a cadence
        fire once and reschedule relative to ``now_ns``).  A deadline at
        or before the current time fires on the next non-frozen, nonzero
        charge, never synchronously inside ``schedule_at``.

        ``name`` labels the event for diagnostics.
        """
        if deadline_ns < 0:
            raise ValueError(f"cannot schedule in negative time: "
                             f"{deadline_ns}")
        self._seq += 1
        event = ScheduledEvent(deadline_ns, self._seq, fn, name)
        seed = self._tiebreak_seed
        key = 0 if seed is None else tiebreak_key(seed, self._seq)
        heapq.heappush(self._events, (deadline_ns, key, self._seq, event))
        if self._calendar_hooks:
            for hook in tuple(self._calendar_hooks):
                hook.scheduled(event)
        return event

    def schedule_after(self, delay_ns: int, fn: Callable[[int], None],
                       *, name: str = "") -> ScheduledEvent:
        """Schedule ``fn`` to run ``delay_ns`` from now (see
        :meth:`schedule_at`)."""
        if delay_ns < 0:
            raise ValueError(f"cannot schedule in negative time: {delay_ns}")
        return self.schedule_at(self._now_ns + delay_ns, fn, name=name)

    def cancel(self, event: ScheduledEvent) -> bool:
        """Cancel ``event``; returns True if it was still pending.

        The calendar's one cancel path.  O(1) and lazy: the heap entry
        is tombstoned in place and discarded when it surfaces.  When
        more than half the heap (beyond a small floor) is tombstones,
        the live entries are re-heapified so the calendar never
        degenerates.
        """
        if not event.pending:
            return False
        event._cancelled = True
        self._tombstones += 1
        if self._tombstones > 16 and self._tombstones * 2 > len(self._events):
            self._compact()
        return True

    def pending_events(self) -> int:
        """Number of pending (non-tombstoned) events."""
        return sum(1 for _, _, _, ev in self._events if ev.pending)

    def _compact(self) -> None:
        # In place: a dispatch pass in progress holds this list.
        live = [entry for entry in self._events if entry[3].pending]
        heapq.heapify(live)
        self._events[:] = live
        self._tombstones = 0

    # -- tie-break permutation & calendar hooks ----------------------------

    @property
    def tiebreak_seed(self) -> int | None:
        """The installed tie-break seed (``None`` = FIFO identity)."""
        return self._tiebreak_seed

    def set_tiebreak(self, seed: int | None) -> int | None:
        """Install a seed permuting dispatch order among same-deadline
        events; returns the previous seed.

        With ``seed=None`` (the default) ties dispatch FIFO in schedule
        order.  With an integer seed, each event's secondary heap key
        becomes :func:`tiebreak_key(seed, seq) <tiebreak_key>`, so every
        tie group dispatches in a seed-determined permutation — fully
        deterministic, and predictable offline from the (seed, seq)
        pairs alone.  Only events scheduled *after* the call are
        affected; deadline order is never violated, so every permuted
        schedule is a legal schedule.  The seed survives :meth:`reset`
        (the explorer spans resets within one run).
        """
        prev = self._tiebreak_seed
        self._tiebreak_seed = seed
        return prev

    def add_calendar_hook(self, hook: CalendarHook) -> Callable[[], None]:
        """Install a :class:`CalendarHook`; returns a remover callable.

        Hooks observe scheduling and dispatch; with none installed the
        dispatch path pays a single truthiness test per event.
        """
        self._calendar_hooks.append(hook)

        def remove() -> None:
            try:
                self._calendar_hooks.remove(hook)
            except ValueError:
                pass
        return remove

    @contextmanager
    def frozen(self) -> Iterator[None]:
        """Context manager during which all charges are discarded.

        Time does not advance, so no calendar events fire inside the
        block.
        """
        prev = self._frozen
        self._frozen = True
        try:
            yield
        finally:
            self._frozen = prev

    # -- measurement helpers ----------------------------------------------

    @contextmanager
    def measure(self) -> Iterator["_Span"]:
        """Context manager yielding a span whose ``elapsed_ns`` is the
        simulated time consumed inside the block."""
        span = _Span(self)
        try:
            yield span
        finally:
            span.stop()

    def reset(self) -> None:
        """Zero the clock: time, category totals, and the event calendar.

        Pending events are cancelled (their handles report
        ``pending == False`` and a later :meth:`cancel` is a no-op), so
        periodic daemons from a previous benchmark phase cannot misfire
        into the next one.
        Daemons that should survive a reset must be re-started against
        the fresh timeline.  The tie-break seed and calendar hooks are
        *kept*: an exploration run owns both for its whole lifetime,
        resets included (remove hooks explicitly when detaching).
        """
        self._now_ns = 0
        self._by_category.clear()
        for _, _, _, event in self._events:
            event._cancelled = True
        self._events.clear()
        # The sequence counter restarts with the timeline: replaying the
        # same schedule after a reset reproduces the same tie-break
        # permutation (the calendar is empty, so no handle can collide).
        self._seq = 0
        self._tombstones = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SimClock(now={self._now_ns}ns, "
                f"events={self.pending_events()})")


class _Span:
    """Elapsed-simulated-time span produced by :meth:`SimClock.measure`."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = clock.now_ns
        self._stop: int | None = None

    def stop(self) -> None:
        """Freeze the span at the current simulated time."""
        if self._stop is None:
            self._stop = self._clock.now_ns

    @property
    def elapsed_ns(self) -> int:
        end = self._stop if self._stop is not None else self._clock.now_ns
        return end - self._start
