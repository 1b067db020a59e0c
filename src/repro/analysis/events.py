"""The structured analysis event stream.

Unlike the :class:`~repro.sim.trace.Trace` ring (a bounded log queried
after the fact), the event hub is a *live* publish/subscribe channel: a
subscriber — a :class:`StreamChecker` — sees every event at the moment
it happens, in order, and can raise at the exact operation that broke
an invariant.

The hub is also the one writer of every fact both streams carry:
``kernel.events.record(SWAP_OUT, pid=..., frame=...)`` writes the trace
record and, while anything subscribes, publishes that same record live
(a :class:`~repro.sim.trace.TraceEvent` with the hub's ``host``).
``record`` is an instance slot that *is* the trace's bound ``emit``
until a subscriber arrives, so a record nobody watches costs exactly
one trace record.  Facts only the live stream wants use ``emit``, which
writes no record; its sites pay one attribute load and one branch
while nothing is subscribed::

    events = kernel.events
    if events.active:
        events.emit(PIN, frames=frames, pid=task.pid)

Three groups stay outside ``record``, for measured reasons:

* registration and kiobuf unmap keep a guarded ``emit`` beside their
  record: their live events carry per-page frame tuples, and putting
  those in the ring cost ``reg_churn`` 9% host throughput and 6% RSS;
* live-only kinds (translate, doorbell, completion, DMA windows,
  per-page pin, fence, TPT insert/invalidate, munmap) stay guarded
  ``emit`` calls: recording them would multiply the records — per op,
  ``netpipe`` publishes 40 live events against 10 records;
* ``task_exit``/:data:`TASK_EXIT` and ``dma_atomic``/:data:`ATOMIC_RMW`
  keep two calls: each pair fires at different instants.

Frame numbers, pids, and vpns are only meaningful per kernel, so every
live event carries the ``host`` label of the hub that published it — a
cluster sanitizer subscribed to several machines keys its state by
``(host, frame)`` and never confuses ``m0``'s frame 5 with ``m1``'s.

Both subscribers — the :class:`~repro.analysis.sanitizer.PinSanitizer`
and the :class:`~repro.analysis.races.RaceDetector` — share one
lifecycle, :class:`StreamChecker`: arming, per-kernel scopes, suppression,
``expect()``, the bounded trail ring, feeding, counting, and the
strict raise.  Each subclass supplies only its model.
"""

from __future__ import annotations

import itertools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.errors import UnmetExpectation
from repro.sim.trace import TraceEvent

# -- event kinds -------------------------------------------------------------

PIN = "pin"                        #: kiobuf pins taken (fields: frames, pid)
UNPIN = "unpin"                    #: kiobuf pins dropped (fields: frames, pid)
DMA_BEGIN = "dma_begin"            #: bus-master window opens (frames, op)
DMA_END = "dma_end"                #: bus-master window closes (frames, op)
TPT_INSERT = "tpt_insert"          #: region installed (handle, frames)
TPT_INVALIDATE = "tpt_invalidate"  #: region removed (handle)
TPT_TRANSLATE = "tpt_translate"    #: translation served (handle, va, length)
MUNMAP = "munmap"                  #: range unmapped (pid, start_vpn, end_vpn)
REGISTER = "via_register"          #: driver registration (handle, pid,
                                   #: frames, backend, first_vpn, npages)
TASK_EXIT = "task_exit"            #: process gone (pid, cleanup)
ATOMIC_RMW = "atomic_rmw"          #: remote atomic RMW on one 8-byte word
                                   #: (frame, offset, op, engine)
TPT_PAGE_INVALIDATE = "tpt_page_invalidate"
                                   #: individual ODP entries went invalid
                                   #: (handle, pages) — the region itself
                                   #: stays registered, unlike TPT_INVALIDATE
DOORBELL = "doorbell"              #: a descriptor was handed to the NIC —
                                   #: the release half of the doorbell→
                                   #: completion sync edge (token, vi, pid)
COMPLETION = "completion"          #: user code *observed* a completion —
                                   #: the acquire half of the doorbell edge
                                   #: (token, vi)
FENCE = "fence"                    #: eviction fenced a region's in-flight
                                   #: translations before unpinning
                                   #: (handle, frame) — release half of the
                                   #: fence→fault-service sync edge

# Recorded facts: written by ``record``, named after their trace record.
MLOCK = "mlock"                    #: VM_LOCKED set (pid, start/end_vpn)
MUNLOCK = "munlock"                #: VM_LOCKED cleared (pid, start/end_vpn)
SWAP_OUT = "swap_out"              #: page stolen to swap (pid, vpn, frame)
SWAP_IN = "swap_in"                #: page read back (pid, vpn, frame, slot)
DEREGISTER = "via_deregister"      #: before the unlock (handle, pid)
RECLAIM_REGISTRATION = "via_reclaim_registration"  #: the reaper's, likewise
FORGET_REGISTRATION = "via_forget_registration"  #: one that leaks the pins
DMA_SUSPEND = "odp_dma_suspend"    #: NIC parked a transfer (handle, token)
DMA_RESUME = "odp_dma_resume"      #: parked transfer resumed (token, ok)
FAULT_SERVICE = "odp_fault_service"  #: ODP pages pinned (handle, frames)
FAULT_COALESCED = "odp_fault_coalesced"  #: a duplicate, answered by the TPT
ODP_EVICT = "odp_evict"            #: ODP frame unpinned (handle, frame)
PIN_RELEASED = "reaper_pin_released"  #: forced unpin (frame, frames)

#: Every kind the instrumented layers publish.
EVENT_KINDS: tuple[str, ...] = (
    PIN, UNPIN, DMA_BEGIN, DMA_END, TPT_INSERT, TPT_INVALIDATE,
    TPT_TRANSLATE, MUNMAP, REGISTER, TASK_EXIT, ATOMIC_RMW,
    TPT_PAGE_INVALIDATE, DOORBELL, COMPLETION, FENCE, MLOCK, MUNLOCK,
    SWAP_OUT, SWAP_IN, DEREGISTER, RECLAIM_REGISTRATION,
    FORGET_REGISTRATION, DMA_SUSPEND, DMA_RESUME, FAULT_SERVICE,
    FAULT_COALESCED, ODP_EVICT, PIN_RELEASED,
)

_hub_ids = itertools.count(0)


def as_events(items: Iterable, stamps: Iterator[int]
              ) -> Iterator[TraceEvent]:
    """The checkers' ``feed`` input as events: a ready
    :class:`TraceEvent` passes through, and a ``(kind, detail)`` pair
    becomes an event on host ``"test"`` stamped from ``stamps``."""
    for item in items:
        if isinstance(item, TraceEvent):
            yield item
        else:
            kind, detail = item
            yield TraceEvent(next(stamps), kind, dict(detail), "test")


def trail_lines(trail: Iterable[TraceEvent], trigger: TraceEvent,
                indent: str) -> list[str]:
    """One report line per trail event, the ``trigger`` marked ``=>``."""
    lines = []
    for e in trail:
        marker = "=>" if e is trigger else "  "
        fields = " ".join(f"{k}={v!r}" for k, v in sorted(e.detail.items()))
        lines.append(f"{indent}{marker} t={e.ts_ns} {e.kind} {fields}")
    return lines


@dataclass
class _Expectation:
    kinds: frozenset[str]
    captured: list = field(default_factory=list)


class StreamChecker:
    """The lifecycle every event-stream checker shares.

    Construct, ``arm()`` a target, run the workload, read the findings
    and :attr:`counts`, ``disarm()``.  Each armed kernel gets its own
    *scope* token, so two kernels that share a host label never alias
    each other's frames or handles; :meth:`feed` scopes by host label.
    A finding of a kind passed to :meth:`suppress` is dropped, one
    inside an :meth:`expect` block is captured, and any other is
    counted, kept, and — in strict mode — raised as the subclass's
    :attr:`ERROR`.

    A subclass names its catalog and error and supplies the model:
    :meth:`_arm_kernel` seeds per-kernel state, :meth:`_observe`
    consumes one event (keeping it in the trail ring through
    :meth:`_remember`), :meth:`_on_disarm` undoes what arming added.
    """

    #: every finding kind the checker reports, in catalog order
    KINDS: tuple[str, ...] = ()
    #: what one entry of :attr:`KINDS` is called in error messages
    KIND_NOUN = "check"
    #: raised at the offending event in strict mode, as
    #: ``ERROR(message, violation=finding)``
    ERROR: Callable[..., Exception]
    #: events the trail ring keeps
    TRAIL_MAXLEN = 256
    #: events a finding's trail shows
    TRAIL_REPORT = 32

    def __init__(self, *, strict: bool = False) -> None:
        self.strict = strict
        self.suppressed: set[str] = set()
        self.findings: list = []
        self.events_seen = 0
        self.armed = False
        self._ring: list[tuple] = []
        self._counts: dict[str, int] = {kind: 0 for kind in self.KINDS}
        self._expectations: list[_Expectation] = []
        #: expect() blocks that exited without capturing anything (and
        #: without an exception in flight) — reported at disarm
        self._unmet: list[str] = []
        self._unsubscribes: list[Callable[[], None]] = []
        self._n_scopes = 0
        self._feed_ts = itertools.count(1)

    # ------------------------------------------------------------ suppression

    def _check_kind(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown {self.KIND_NOUN} {kind!r}; "
                             f"choose one of {self.KINDS}")

    def suppress(self, kind: str) -> "StreamChecker":
        """Disable one kind (typo-checked against :attr:`KINDS`)."""
        self._check_kind(kind)
        self.suppressed.add(kind)
        return self

    @contextmanager
    def expect(self, *kinds: str) -> Iterator[list]:
        """Capture findings of ``kinds`` (all kinds when empty) instead
        of recording/raising them — for tests that *provoke* a finding
        and want to assert it fired.  Yields the capture list.

        An expect block that exits *without* capturing anything is a
        test bug — the scenario stopped exercising the hazard and the
        "expected finding" assertion now vacuously passes.  Such blocks
        are remembered and :meth:`disarm` raises
        :class:`~repro.errors.UnmetExpectation` for them (at disarm
        rather than at block exit, so an exception already unwinding
        through the block — the usual reason nothing fired — is never
        masked)."""
        for kind in kinds:
            self._check_kind(kind)
        exp = _Expectation(frozenset(kinds))
        self._expectations.append(exp)
        try:
            yield exp.captured
        finally:
            self._expectations.remove(exp)
            if not exp.captured and sys.exc_info()[0] is None:
                self._unmet.append(
                    "expect(" + ", ".join(sorted(exp.kinds)) + ")"
                    if exp.kinds else "expect(<any check>)")

    # ----------------------------------------------------------------- arming

    def arm(self, target: Any) -> "StreamChecker":
        """Subscribe to every kernel of ``target`` (see
        :func:`repro.via.machine.hosts_of`), each under a fresh scope."""
        # repro.via imports this module
        # repro-lint: allow(local-import) -- import cycle
        from repro.via.machine import hosts_of
        for kernel, agents in hosts_of(target):
            self._n_scopes += 1
            scope = self._n_scopes
            self._arm_kernel(kernel, agents, scope)
            self._unsubscribes.append(kernel.events.subscribe(
                lambda event, _scope=scope: self.handle(event,
                                                        scope=_scope)))
        self.armed = True
        return self

    def _arm_kernel(self, kernel: Any, agents: list, scope: int) -> None:
        """Seed per-kernel state before the hub subscription."""

    def disarm(self) -> None:
        """Unsubscribe from every armed hub, run the subclass teardown,
        then raise :class:`~repro.errors.UnmetExpectation` for any
        expect() block that captured nothing."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()
        self.armed = False
        self._on_disarm()
        unmet, self._unmet = self._unmet, []
        if unmet:
            raise UnmetExpectation(
                f"{len(unmet)} expect() block(s) completed without the "
                f"expected violation ever firing: " + "; ".join(unmet))

    def _on_disarm(self) -> None:
        """Tear down what :meth:`_arm_kernel` added."""

    # ------------------------------------------------------------------ stats

    @property
    def counts(self) -> dict[str, int]:
        """Findings recorded so far, by kind (includes zeros)."""
        return dict(self._counts)

    # ------------------------------------------------------------------- feed

    def handle(self, event: TraceEvent, scope: Any = None) -> None:
        """Consume one event (the hub-subscription entry point).

        ``scope`` namespaces the checker's state; armed hubs bind a
        distinct scope at subscription time.  When fed directly it
        defaults to the event's host label.
        """
        if scope is None:
            scope = event.host
        self.events_seen += 1
        self._observe(event, scope)

    def feed(self, events: Iterable) -> None:
        """Drive the checker directly — the golden-test entry point.

        Each item is either a ready :class:`TraceEvent` or a
        ``(kind, detail_dict)`` pair, which is stamped with host
        ``"test"`` and a monotonically increasing timestamp.
        """
        for event in as_events(events, self._feed_ts):
            self.handle(event)

    def _observe(self, event: TraceEvent, scope: Any) -> None:
        raise NotImplementedError

    def _remember(self, entry: tuple) -> None:
        """Append one entry to the bounded trail ring."""
        ring = self._ring
        ring.append(entry)
        if len(ring) > self.TRAIL_MAXLEN:
            del ring[:len(ring) - self.TRAIL_MAXLEN]

    # -------------------------------------------------------------- reporting

    def _file(self, kind: str, finding: Any) -> None:
        """Drop, capture, or record one finding (raising when strict)."""
        if kind in self.suppressed:
            return
        for exp in reversed(self._expectations):
            if not exp.kinds or kind in exp.kinds:
                exp.captured.append(finding)
                return
        self._counts[kind] += 1
        self.findings.append(finding)
        if self.strict:
            raise self.ERROR(finding.format(), violation=finding)


class EventHub:
    """Per-kernel publish/subscribe channel, and the writer of the
    facts both streams carry.

    ``active`` is a plain attribute (kept in sync by
    :meth:`subscribe`), so hot emission sites can guard with a single
    attribute load instead of a property call.  The hub's truthiness
    mirrors it (``if events:`` ≡ ``if events.active:``).  The
    ``instrumentation-unguarded`` lint rule keeps every ``emit`` under
    that guard and every ``record`` outside it.
    """

    __slots__ = ("_clock", "_trace", "_subs", "active", "host",
                 "events_emitted", "record")

    def __init__(self, clock, trace, host: str | None = None) -> None:
        self._clock = clock
        self._trace = trace
        self._subs: list[Callable[[TraceEvent], None]] = []
        self.active = False
        self.host = host if host is not None else f"kernel{next(_hub_ids)}"
        self.events_emitted = 0
        #: ``record(kind, **detail)``: the trace's bound ``emit`` while
        #: nothing subscribes, record-and-publish otherwise
        self.record: Callable[..., None] = trace.emit

    def __bool__(self) -> bool:
        """True while anything is subscribed — the emission-site guard."""
        return self.active

    def subscribe(self, callback: Callable[[TraceEvent], None]
                  ) -> Callable[[], None]:
        """Add a subscriber; returns an idempotent unsubscribe."""
        self._subs.append(callback)
        self.active = True
        self.record = self._record_and_publish

        def unsubscribe() -> None:
            if callback in self._subs:
                self._subs.remove(callback)
            if not self._subs:
                self.active = False
                self.record = self._trace.emit

        return unsubscribe

    def emit(self, kind: str, **detail: Any) -> None:
        """Publish one live-only event (no-op when inactive).

        The detail mapping is owned by the event from here on; callers
        must not retain and mutate it (the emission sites all build the
        dict inline, so this holds by construction).
        """
        if self._subs:
            self._publish(kind, detail)

    def _record_and_publish(self, kind: str, **detail: Any) -> None:
        self._trace.emit(kind, **detail)
        self._publish(kind, detail)

    def _publish(self, kind: str, detail: dict) -> None:
        self.events_emitted += 1
        event = TraceEvent(self._clock.now_ns, kind, detail, self.host)
        for callback in list(self._subs):
            callback(event)
