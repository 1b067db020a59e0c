"""Completion queues.

A CQ aggregates completions from the work queues of several VIs, so one
poll loop can service many connections (how MPI progress engines use
VIA).  Attachment happens at VI creation time, per work queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque

from repro.analysis.events import COMPLETION

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.descriptor import Descriptor


@dataclass(frozen=True)
class Completion:
    """One completion notification."""

    vi_id: int
    queue: str              #: ``"send"`` or ``"recv"``
    descriptor: "Descriptor"
    #: typed original-value carry for remote atomics: the value the
    #: target word held before the RMW.  A dedicated field — atomics do
    #: not alias ``immediate_data`` (that carry is 4 bytes and already
    #: owned by send/RDMA-write semantics).
    atomic_original_value: int | None = None


class CompletionQueue:
    """FIFO of :class:`Completion` notifications."""

    def __init__(self, depth: int = 1024, obs=None, events=None) -> None:
        self.depth = depth
        self._items: Deque[Completion] = deque()
        self.overflows = 0
        #: optional :class:`~repro.obs.Observability` (wired by
        #: :meth:`UserAgent.create_cq`; standalone CQs stay unobserved)
        self.obs = obs
        #: optional :class:`~repro.analysis.events.EventHub` (wired by
        #: :meth:`UserAgent.create_cq`): observing a completion emits a
        #: COMPLETION event that acquires the posting DOORBELL's token,
        #: closing the publish/observe happens-before edge
        self.events = events

    def post(self, completion: Completion) -> None:
        """NIC side: append a completion (drops + counts on overflow,
        like real hardware with a full CQ)."""
        if len(self._items) >= self.depth:
            self.overflows += 1
            if self.obs is not None:
                self.obs.inc("via.cq.overflows")
            return
        self._items.append(completion)
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.metrics.gauge("via.cq.depth").set(len(self._items))

    def _note_observed(self, completion: Completion) -> None:
        events = self.events
        if events is not None and events.active:
            token = completion.descriptor.hb_token
            if token is not None:
                events.emit(COMPLETION, token=token, vi=completion.vi_id,
                            queue=completion.queue)

    def drain_batch(self, max_items: int | None = None,
                    ) -> list[Completion]:
        """User side: pop up to ``max_items`` completions (all queued
        completions when None) in FIFO order (``VipCQDone`` pops one).

        One call services a whole burst of completions, so progress
        loops driving many VIs pay the call overhead once per drain
        instead of once per completion.
        """
        items = self._items
        if max_items is None or max_items >= len(items):
            out = list(items)
            items.clear()
        elif max_items <= 0:
            return []
        else:
            out = [items.popleft() for _ in range(max_items)]
        for completion in out:
            self._note_observed(completion)
        return out

    def drain_vi(self, vi_id: int) -> int:
        """Drop every queued completion belonging to ``vi_id``; returns
        how many were dropped.

        Used when a VI is torn down while its owner is dead: a CQ may be
        shared between VIs of several processes, and nobody should poll
        a dead process's notifications out of it.
        """
        before = len(self._items)
        self._items = deque(c for c in self._items if c.vi_id != vi_id)
        return before - len(self._items)

    def __len__(self) -> int:
        return len(self._items)
