"""Virtual Interfaces: work queues + doorbells.

"A VI comprises two work queues, one for send descriptors and one for
receive descriptors, and a pair of appendant doorbells."  Doorbells are
the user-level notification path: a doorbell is one page of the NIC's
register space mapped into exactly one process, so "the handling which
process may access which doorbell ... can be simply realized by the
host's virtual memory management system".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque

from repro.errors import ViaConnectionError
from repro.via.constants import (
    VIP_ERROR_CONN_LOST, ReliabilityLevel, ViState,
)
from repro.via.cq import Completion, CompletionQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.descriptor import Descriptor


@dataclass
class Doorbell:
    """A doorbell: the page-sized register window of one VI.

    ``owner_pid`` models the virtual-memory protection: only the process
    the doorbell page is mapped into can ring it.
    """

    vi_id: int
    queue: str                  #: ``"send"`` or ``"recv"``
    owner_pid: int
    rings: int = 0

    def ring(self, pid: int) -> None:
        """Ring the doorbell; a foreign pid means the process faked a
        doorbell access it could never perform on real hardware."""
        if pid != self.owner_pid:
            raise ViaConnectionError(
                f"pid {pid} rang doorbell of VI {self.vi_id} owned by "
                f"pid {self.owner_pid}")
        self.rings += 1


@dataclass
class VirtualInterface:
    """One VI: the unit of connection and protection."""

    vi_id: int
    owner_pid: int
    prot_tag: int
    reliability: ReliabilityLevel = ReliabilityLevel.RELIABLE_DELIVERY
    state: ViState = ViState.IDLE
    #: remote endpoint as ``(nic_name, vi_id)`` once connected
    peer: tuple[str, int] | None = None

    send_queue: Deque["Descriptor"] = field(default_factory=deque)
    recv_queue: Deque["Descriptor"] = field(default_factory=deque)
    send_doorbell: Doorbell = field(default=None)  # type: ignore[assignment]
    recv_doorbell: Doorbell = field(default=None)  # type: ignore[assignment]

    send_cq: "CompletionQueue | None" = None
    recv_cq: "CompletionQueue | None" = None

    #: completed descriptors awaiting VipSendDone/VipRecvDone polls when
    #: no CQ is attached
    send_done: Deque["Descriptor"] = field(default_factory=deque)
    recv_done: Deque["Descriptor"] = field(default_factory=deque)

    #: reliability protocol state: last sequence number transmitted, and
    #: highest sequence number successfully received (for deduplication
    #: of retransmits after a lost ACK)
    tx_seq: int = 0
    rx_seq: int = 0

    #: responder-side atomic dedup cache: seq → (status, original value).
    #: A retransmitted atomic (its response was lost) is answered from
    #: here instead of re-executing the RMW — atomics must be
    #: idempotent-guarded, not blindly replayed.  Bounded by
    #: :data:`~repro.via.constants.ATOMIC_RESPONSE_CACHE`.
    atomic_responses: dict[int, tuple[str, int]] = field(
        default_factory=dict)

    def __post_init__(self) -> None:
        if self.send_doorbell is None:
            self.send_doorbell = Doorbell(self.vi_id, "send", self.owner_pid)
        if self.recv_doorbell is None:
            self.recv_doorbell = Doorbell(self.vi_id, "recv", self.owner_pid)

    # -- state ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Descriptors still queued (posted, not yet completed)."""
        return len(self.send_queue) + len(self.recv_queue)

    def require_connected(self) -> None:
        """Raise unless the VI is in the CONNECTED state."""
        if self.state != ViState.CONNECTED:
            raise ViaConnectionError(
                f"VI {self.vi_id} is {self.state.value}, not connected")

    def enter_error(self, status: str = VIP_ERROR_CONN_LOST) -> None:
        """Break the connection (reliable-mode delivery failure or NIC
        reset).

        Per the VIA spec, the transition completes every outstanding
        descriptor on both work queues with ``VIP_ERROR_CONN_LOST`` so
        user code polling for completions learns of the loss instead of
        waiting forever.
        """
        self.state = ViState.ERROR
        while self.send_queue:
            desc = self.send_queue.popleft()
            desc.complete(status, 0)
            self.complete_send(desc)
        while self.recv_queue:
            desc = self.recv_queue.popleft()
            desc.complete(status, 0)
            self.complete_recv(desc)

    # -- completion plumbing -------------------------------------------------------

    def complete_send(self, desc: "Descriptor") -> None:
        """Route a finished send descriptor to its CQ or local done list."""
        if self.send_cq is not None:
            self.send_cq.post(Completion(
                self.vi_id, "send", desc,
                atomic_original_value=desc.atomic_original_value))
        else:
            self.send_done.append(desc)

    def complete_recv(self, desc: "Descriptor") -> None:
        """Route a finished receive descriptor likewise."""
        if self.recv_cq is not None:
            self.recv_cq.post(Completion(
                self.vi_id, "recv", desc,
                atomic_original_value=desc.atomic_original_value))
        else:
            self.recv_done.append(desc)
