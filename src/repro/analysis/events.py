"""The structured analysis event stream.

Unlike the :class:`~repro.sim.trace.Trace` ring (a bounded log queried
after the fact), the event hub is a *live* publish/subscribe channel: a
subscriber — the :class:`~repro.analysis.sanitizer.PinSanitizer` — sees
every event at the moment it happens, in order, and can raise at the
exact operation that broke an invariant.

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
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator

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
