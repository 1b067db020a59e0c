"""Vector-clock happens-before race detection over the analysis stream.

The :class:`~repro.analysis.sanitizer.PinSanitizer` checks the one
schedule the simulator happens to dispatch; this module checks the
*ordering* itself.  A :class:`RaceDetector` subscribes to the same
:class:`~repro.analysis.events.EventHub` stream, assigns every event to
an **execution context**, and maintains a vector clock per context.  Two
conflicting accesses to the same frame or TPT entry with no
happens-before edge between their contexts are reported as a typed
:class:`RaceViolation` carrying both access trails — the latent bug that
a different legal schedule would have turned into corruption, even when
the schedule that actually ran was harmless.

Execution contexts, not hardware names
--------------------------------------

The simulator is single-threaded: the NIC, the DMA engine, and the
kernel run inline in whoever called them, so labelling accesses by
hardware unit would declare almost everything concurrent and drown the
report in false races.  The real nondeterminism lives in exactly one
place: the order same-deadline calendar events dispatch (the explorer
permutes it via :meth:`SimClock.set_tiebreak`).  The detector therefore
models contexts as:

* ``main`` — everything that runs outside a calendar callback.  Main is
  totally ordered with itself, trivially.
* one context per calendar callback *firing*.  A firing happens-after
  the context that scheduled it, after the charge that crossed its
  deadline (the carrier), and after every firing at an earlier
  deadline; when the dispatch pass ends, its effects fold back into
  ``main``.  Two firings at the *same* deadline share none of those
  edges — they are the pair a permuted tie-break would reorder, and the
  only true concurrency in the system.

Synchronization edges
---------------------

On top of calendar causality, protocol events build acquire/release
edges between contexts, keyed per armed scope:

* ``DOORBELL`` (release) → ``COMPLETION`` (acquire), keyed by token:
  posting a descriptor publishes the work; *observing* its completion
  orders the observer after it.
* ``DMA_SUSPEND`` (release) → ``FAULT_SERVICE`` (acquire) →
  ``DMA_RESUME`` (acquire of the service's release), keyed by the
  suspension token: the ODP fault protocol.
* ``FENCE`` (release) → ``FAULT_SERVICE`` (acquire), keyed by handle:
  eviction fences a region's translations before unpinning; a later
  fault service of that region is ordered after the fence.

Conflicts are **directional**: ``translate`` after a concurrent
``invalidate`` is use-after-invalidate, while ``invalidate`` after a
completed ``translate`` is ordinary teardown.  This is what makes the
whole suite race-clean on the default schedule while a permuted
schedule (which really does run the dangerous order) reports the race.

Race classes (:data:`RACE_KINDS`):

1.  ``unpin-vs-dma`` — DMA through a frame a concurrent context
    unpinned (or an unpin while a concurrent DMA window is open).
2.  ``swap-vs-dma`` — DMA racing page-steal on the same frame.
3.  ``invalidate-vs-translate`` — a TPT translation racing the
    invalidation of the same handle's entries.
4.  ``fault-service-vs-evict`` — ODP fault-in racing pressure eviction
    of the same frame.
5.  ``pin-ledger`` — concurrent unordered updates of a frame's pin
    count (unpin racing pin or another unpin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import RaceDetected
from repro.sim.clock import CalendarHook, ScheduledEvent, SimClock
from repro.sim.trace import TraceEvent

from . import events as ev
from .events import StreamChecker, trail_lines

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel

#: Every race class the engine reports.
RACE_KINDS: tuple[str, ...] = (
    "unpin-vs-dma",
    "swap-vs-dma",
    "invalidate-vs-translate",
    "fault-service-vs-evict",
    "pin-ledger",
)

#: prior access class → current access class → race kind, for the
#: unconditionally dangerous directions.
_DIRECTIONAL: dict[tuple[str, str], str] = {
    ("unpin", "dma"): "unpin-vs-dma",
    ("swap", "dma"): "swap-vs-dma",
    ("invalidate", "translate"): "invalidate-vs-translate",
    ("service", "evict"): "fault-service-vs-evict",
    ("pin", "unpin"): "pin-ledger",
    ("unpin", "unpin"): "pin-ledger",
}

#: directions dangerous only while the prior DMA window is still open —
#: a *closed* window followed by unpin/swap is ordinary teardown.
_WINDOW_CONDITIONAL: dict[tuple[str, str], str] = {
    ("dma", "unpin"): "unpin-vs-dma",
    ("dma", "swap"): "swap-vs-dma",
}


def _join(into: dict[str, int], other: dict[str, int]) -> None:
    """Pointwise max, in place."""
    for key, val in other.items():
        if into.get(key, 0) < val:
            into[key] = val


@dataclass(frozen=True)
class RaceViolation:
    """Two conflicting accesses with no happens-before edge."""

    race: str                        #: entry of :data:`RACE_KINDS`
    host: str                        #: machine the accesses came from
    location: tuple[Any, ...]        #: ("frame", n) or ("tpt", handle)
    message: str
    prior: TraceEvent                #: the earlier access (in run order)
    prior_actor: str                 #: its execution context / actor
    current: TraceEvent              #: the access that closed the race
    current_actor: str
    prior_trail: tuple[TraceEvent, ...]
    current_trail: tuple[TraceEvent, ...]

    def format(self) -> str:
        """Human-readable report: message plus both access trails."""
        lines = [f"[{self.race}] on {self.host} at {self.location}: "
                 f"{self.message}"]
        for label, actor, trail, marker_of in (
                ("prior", self.prior_actor, self.prior_trail, self.prior),
                ("current", self.current_actor, self.current_trail,
                 self.current)):
            lines.append(f"  {label} access by {actor}:")
            lines += trail_lines(trail, marker_of, "    ")
        return "\n".join(lines)


class _ClockState(CalendarHook):
    """Per-clock calendar observer: context lifecycle + tie groups.

    Owns the calendar-causality bookkeeping for one :class:`SimClock`:
    the carrier/frontier joins that order callback firings after main
    and after earlier deadlines, and the recorded tie groups the
    explorer's DPOR-lite pruning consumes.
    """

    def __init__(self, detector: "RaceDetector", clock: SimClock,
                 index: int) -> None:
        self.detector = detector
        self.clock = clock
        self.main = f"c{index}:main"
        self._prefix = f"c{index}:"
        #: schedule-time VC snapshot per event seq (calendar causality)
        self.sched_vc: dict[int, dict[str, int]] = {}
        #: join of end-VCs of firings at earlier deadlines/passes
        self.completed: dict[str, int] = {}
        #: join of end-VCs of firings at the current tie (deadline, pass)
        self.pending: dict[str, int] = {}
        #: join of end-VCs awaiting fold into main when dispatch ends
        self.resume: dict[str, int] = {}
        self.cur_deadline: int | None = None
        self.firing_ctx: str | None = None
        self.firing_seq: int | None = None
        #: recorded tie groups: (deadline, [seqs in dispatch order])
        self.groups: list[tuple[int, list[int]]] = []
        #: locations touched per firing seq (for DPOR-lite pruning)
        self.locs: dict[int, set[tuple[Any, ...]]] = {}

    # -- CalendarHook ------------------------------------------------------

    def scheduled(self, event: ScheduledEvent) -> None:
        ctx = self.firing_ctx if self.firing_ctx is not None else self.main
        vc = self.detector._vcs.get(ctx)
        if vc:
            self.sched_vc[event.seq] = dict(vc)

    def pass_begin(self) -> None:
        self._fold_resume()

    def fire_begin(self, event: ScheduledEvent) -> None:
        if self.cur_deadline != event.deadline_ns:
            _join(self.completed, self.pending)
            self.pending = {}
            self.cur_deadline = event.deadline_ns
            self.groups.append((event.deadline_ns, []))
        self.groups[-1][1].append(event.seq)
        suffix = f":{event.name}" if event.name else ""
        ctx = f"{self._prefix}ev{event.seq}{suffix}"
        start = dict(self.detector._vcs.get(self.main, {}))
        _join(start, self.completed)
        sched = self.sched_vc.pop(event.seq, None)
        if sched is not None:
            _join(start, sched)
        self.detector._vcs[ctx] = start
        self.firing_ctx = ctx
        self.firing_seq = event.seq

    def fire_end(self, event: ScheduledEvent) -> None:
        if self.firing_ctx is not None:
            end = self.detector._vcs.get(self.firing_ctx)
            if end:
                _join(self.pending, end)
                _join(self.resume, end)
        self.firing_ctx = None
        self.firing_seq = None

    # -- helpers -----------------------------------------------------------

    def current_ctx(self) -> str:
        """The context the event being handled right now belongs to."""
        if self.firing_ctx is not None:
            return self.firing_ctx
        self._fold_resume()
        return self.main

    def record_loc(self, loc: tuple[Any, ...]) -> None:
        """Charge a touched location to the currently-firing callback
        (the explorer's DPOR pruning consumes these per-firing sets)."""
        if self.firing_seq is not None:
            self.locs.setdefault(self.firing_seq, set()).add(loc)

    def _fold_resume(self) -> None:
        """Dispatch is over (or a new pass begins): main continues
        after every firing, and firings so far precede later ones."""
        _join(self.completed, self.pending)
        self.pending = {}
        self.cur_deadline = None
        if self.resume:
            main_vc = self.detector._vcs.setdefault(self.main, {})
            _join(main_vc, self.resume)
            self.resume = {}


class RaceDetector(StreamChecker):
    """Happens-before checker for the pin/DMA event stream.

    Shares the :class:`~repro.analysis.events.StreamChecker` lifecycle:
    construct, ``arm()`` a Machine / Cluster / bare Kernel, run the
    workload, read ``races`` / ``counts`` (or let ``strict=True`` raise
    :class:`RaceDetected` at the access that closed the race),
    ``disarm()``.  ``feed()`` drives the engine from a synthetic event
    list for golden tests — there the ``actor`` field (or pid/engine)
    names the context explicitly, since no calendar exists to attribute
    against.
    """

    KINDS = RACE_KINDS
    KIND_NOUN = "race kind"
    ERROR = RaceDetected
    TRAIL_REPORT = 8

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        self._hook_removers: list[Callable[[], None]] = []
        #: vector clocks, one per execution context
        self._vcs: dict[str, dict[str, int]] = {}
        #: calendar observer per armed clock (by id), and per scope
        self._clock_states: dict[int, _ClockState] = {}
        self._scope_state: dict[Any, _ClockState] = {}
        #: last access per (scope, location) → {(class, ctx): (own, event)}
        self._accesses: dict[
            tuple[Any, tuple[Any, ...]],
            dict[tuple[str, str], tuple[int, TraceEvent]]] = {}
        #: open DMA windows per (scope, frame)
        self._windows: dict[tuple[Any, int], int] = {}
        #: released VCs per (scope, edge kind, key)
        self._released: dict[tuple[Any, str, Any], dict[str, int]] = {}
        #: already-reported (scope, loc, race, prior ctx, current ctx)
        self._reported: set[tuple[Any, ...]] = set()

    @property
    def races(self) -> list[RaceViolation]:
        """Races recorded so far, in order."""
        return self.findings

    # ----------------------------------------------------------------- arming

    def _arm_kernel(self, kernel: "Kernel", agents: list,
                    scope: int) -> None:
        """Install a calendar hook on each distinct clock (machines of
        one cluster share a clock and therefore a context namespace)."""
        clock = kernel.clock
        state = self._clock_states.get(id(clock))
        if state is None:
            state = _ClockState(self, clock, len(self._clock_states))
            self._clock_states[id(clock)] = state
            self._hook_removers.append(clock.add_calendar_hook(state))
        self._scope_state[scope] = state

    def _on_disarm(self) -> None:
        for remove in self._hook_removers:
            remove()
        self._hook_removers.clear()

    # ------------------------------------------------------------------ stats

    def dispatch_groups(self) -> list[tuple[int, list[tuple[int, frozenset]]]]:
        """Recorded same-deadline tie groups with ≥ 2 members.

        Each entry is ``(deadline_ns, [(seq, touched_locations), ...])``
        in the order the group actually dispatched — the raw material
        for the explorer's DPOR-lite pruning: a candidate tie-break seed
        whose first reordering only swaps members with disjoint
        location sets cannot change the race verdict.
        """
        out: list[tuple[int, list[tuple[int, frozenset]]]] = []
        for state in self._clock_states.values():
            for deadline, seqs in state.groups:
                if len(seqs) < 2:
                    continue
                out.append((deadline, [
                    (seq, frozenset(state.locs.get(seq, ())))
                    for seq in seqs]))
        return out

    # ------------------------------------------------------------------- feed

    def _observe(self, event: TraceEvent, scope: Any) -> None:
        """Attribute one event to its context (the calendar's, or with
        none armed the feed actor's), then check its accesses."""
        state = self._scope_state.get(scope)
        if state is not None:
            ctx = state.current_ctx()
        else:
            ctx = self._feed_actor(event)
        self._remember((scope, ctx, event))
        vc = self._vcs.setdefault(ctx, {})
        vc[ctx] = vc.get(ctx, 0) + 1
        self._sync_edges(event, scope, ctx, vc)
        if event.kind == ev.DMA_END:
            self._on_dma_end(event, scope)
            return
        for cls, loc in self._accesses_of(event):
            if state is not None:
                state.record_loc(loc)
            self._check_access(event, scope, ctx, vc, cls, loc)

    @staticmethod
    def _feed_actor(event: TraceEvent) -> str:
        actor = event.get("actor")
        if actor is not None:
            return str(actor)
        pid = event.get("pid")
        if pid is not None:
            return f"task:{pid}"
        engine = event.get("engine")
        if engine is not None:
            return str(engine)
        return "main"

    # -------------------------------------------------------------- the model

    def _sync_edges(self, event: TraceEvent, scope: Any, ctx: str,
                    vc: dict[str, int]) -> None:
        kind = event.kind
        if kind == ev.DOORBELL:
            self._release(scope, "db", event.get("token"), vc)
        elif kind == ev.COMPLETION:
            self._acquire(scope, "db", event.get("token"), vc)
        elif kind == ev.DMA_SUSPEND:
            self._release(scope, "fault", event.get("token"), vc)
        elif kind == ev.FAULT_SERVICE or kind == ev.FAULT_COALESCED:
            token = event.get("token")
            self._acquire(scope, "fault", token, vc)
            self._acquire(scope, "fence", event.get("handle"), vc)
            self._release(scope, "svc", token, vc)
        elif kind == ev.DMA_RESUME:
            self._acquire(scope, "svc", event.get("token"), vc)
        elif kind == ev.FENCE:
            self._release(scope, "fence", event.get("handle"), vc)

    def _release(self, scope: Any, edge: str, key: Any,
                 vc: dict[str, int]) -> None:
        if key is None:
            return
        slot = self._released.setdefault((scope, edge, key), {})
        _join(slot, vc)

    def _acquire(self, scope: Any, edge: str, key: Any,
                 vc: dict[str, int]) -> None:
        if key is None:
            return
        released = self._released.get((scope, edge, key))
        if released:
            _join(vc, released)

    @staticmethod
    def _accesses_of(event: TraceEvent
                     ) -> list[tuple[str, tuple[Any, ...]]]:
        kind = event.kind
        if kind == ev.PIN:
            return [("pin", ("frame", f)) for f in event.get("frames", ())]
        if kind == ev.UNPIN or kind == ev.PIN_RELEASED:
            return [("unpin", ("frame", f)) for f in event.get("frames", ())]
        if kind == ev.DMA_BEGIN:
            return [("dma", ("frame", f)) for f in event.get("frames", ())]
        if kind == ev.SWAP_OUT:
            frame = event.get("frame")
            return [] if frame is None else [("swap", ("frame", frame))]
        if kind == ev.FAULT_SERVICE or kind == ev.FAULT_COALESCED:
            return [("service", ("frame", f))
                    for f in event.get("frames", ()) if f is not None
                    and f >= 0]
        if kind == ev.ODP_EVICT:
            frame = event.get("frame")
            return [] if frame is None else [("evict", ("frame", frame))]
        if kind == ev.TPT_TRANSLATE:
            return [("translate", ("tpt", event.get("handle")))]
        if kind in (ev.TPT_INVALIDATE, ev.TPT_PAGE_INVALIDATE):
            return [("invalidate", ("tpt", event.get("handle")))]
        return []

    def _check_access(self, event: TraceEvent, scope: Any, ctx: str,
                      vc: dict[str, int], cls: str,
                      loc: tuple[Any, ...]) -> None:
        slot = self._accesses.setdefault((scope, loc), {})
        for (prior_cls, prior_ctx), (own, prior_event) in slot.items():
            if prior_ctx == ctx:
                continue
            race = _DIRECTIONAL.get((prior_cls, cls))
            if race is None:
                race = _WINDOW_CONDITIONAL.get((prior_cls, cls))
                if race is not None and not self._window_open(scope, loc):
                    race = None
            if race is None or race in self.suppressed:
                continue
            if own <= vc.get(prior_ctx, 0):
                continue                      # happens-before: ordered
            self._report(race, loc, scope, prior_cls, prior_ctx,
                         prior_event, cls, ctx, event)
        slot[(cls, ctx)] = (vc[ctx], event)
        if event.kind == ev.DMA_BEGIN:
            key = (scope, loc[1])
            self._windows[key] = self._windows.get(key, 0) + 1

    def _window_open(self, scope: Any, loc: tuple[Any, ...]) -> bool:
        return self._windows.get((scope, loc[1]), 0) > 0

    def _on_dma_end(self, event: TraceEvent, scope: Any) -> None:
        for frame in event.get("frames", ()):
            key = (scope, frame)
            count = self._windows.get(key, 0)
            if count > 1:
                self._windows[key] = count - 1
            else:
                self._windows.pop(key, None)

    # -------------------------------------------------------------- reporting

    def _report(self, race: str, loc: tuple[Any, ...], scope: Any,
                prior_cls: str, prior_ctx: str, prior_event: TraceEvent,
                cls: str, ctx: str, event: TraceEvent) -> None:
        dedup = (scope, loc, race, prior_ctx, ctx)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        message = (f"{cls} by {ctx} races {prior_cls} by {prior_ctx}: "
                   f"no happens-before edge orders them")
        violation = RaceViolation(
            race=race, host=event.host, location=loc, message=message,
            prior=prior_event, prior_actor=prior_ctx,
            current=event, current_actor=ctx,
            prior_trail=self._trail(scope, prior_ctx),
            current_trail=self._trail(scope, ctx))
        self._file(race, violation)

    def _trail(self, scope: Any, ctx: str) -> tuple[TraceEvent, ...]:
        related = [e for e_scope, e_ctx, e in self._ring
                   if e_scope == scope and e_ctx == ctx]
        return tuple(related[-self.TRAIL_REPORT:])
