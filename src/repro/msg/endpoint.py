"""Messaging endpoints.

An :class:`Endpoint` is one communicating rank: a task with an open NIC,
one connected VI, a pool of preregistered *bounce buffers* with receive
descriptors preposted into them (the classic VIA pattern — "a receive
descriptor with a data buffer of sufficient size has to be posted before
the sender's data arrives"), and an optional registration cache for
zero-copy transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.regcache import RegistrationCache
from repro.errors import QueueEmpty, ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.via.constants import ReliabilityLevel
from repro.via.descriptor import DataSegment, Descriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.machine import Cluster, Machine
    from repro.kernel.task import Task


@dataclass
class BounceSlot:
    """One preregistered bounce buffer slot."""

    index: int
    va: int
    size: int
    descriptor: Descriptor | None = None   #: currently posted recv desc


class Endpoint:
    """One rank of a message-passing pair."""

    #: bytes per bounce slot (one page keeps eager fragmentation simple)
    CHUNK = PAGE_SIZE

    def __init__(self, machine: "Machine", task: "Task | None" = None,
                 bounce_slots: int = 16,
                 reliability: ReliabilityLevel =
                 ReliabilityLevel.RELIABLE_DELIVERY,
                 cache_max_pages: int | None = None) -> None:
        self.machine = machine
        self.task = task if task is not None else machine.spawn("rank")
        self.ua = machine.user_agent(self.task)
        self.vi = self.ua.create_vi(reliability=reliability)
        self.cache = RegistrationCache(machine.agent, self.task,
                                       max_pages=cache_max_pages)

        # -- bounce pool: allocated, registered once, receives preposted --
        self.bounce_slots: list[BounceSlot] = []
        pool_pages = bounce_slots * (self.CHUNK // PAGE_SIZE)
        self._bounce_va = self.task.mmap(pool_pages, name="bounce")
        self.task.touch_pages(self._bounce_va, pool_pages)
        self.bounce_reg = self.ua.register_mem(
            self._bounce_va, pool_pages * PAGE_SIZE)
        for i in range(bounce_slots):
            slot = BounceSlot(i, self._bounce_va + i * self.CHUNK,
                              self.CHUNK)
            self.bounce_slots.append(slot)
            self._post_slot(slot)

        # -- a dedicated send-side staging slot (for copy protocols) -------
        staging_pages = 1
        self._staging_va = self.task.mmap(staging_pages, name="staging")
        self.task.touch_pages(self._staging_va, staging_pages)
        self.staging_reg = self.ua.register_mem(
            self._staging_va, staging_pages * PAGE_SIZE)

        # counters
        self.copies_bytes = 0
        self.control_messages = 0

    # -- bounce management ----------------------------------------------------

    def _post_slot(self, slot: BounceSlot) -> None:
        desc = Descriptor.recv([DataSegment(self.bounce_reg.handle,
                                            slot.va, slot.size)])
        slot.descriptor = desc
        self.ua.post_recv(self.vi, desc)

    def _slot_of(self, desc: Descriptor) -> BounceSlot:
        for slot in self.bounce_slots:
            if slot.descriptor is desc:
                return slot
        raise ViaError("completed descriptor does not belong to any slot")

    # -- basic messaging --------------------------------------------------------

    def send_chunk(self, data: bytes, immediate: bytes | None = None) -> None:
        """Copy ``data`` (≤ CHUNK) into staging and send it."""
        if len(data) > self.CHUNK:
            raise ViaError(f"chunk of {len(data)} bytes exceeds "
                           f"{self.CHUNK}")
        self.task.write(self._staging_va, data)
        self.copies_bytes += len(data)
        desc = Descriptor.send(
            [DataSegment(self.staging_reg.handle, self._staging_va,
                         len(data))],
            immediate=immediate)
        self.post(desc, "send")

    def post(self, desc: Descriptor, what: str) -> None:
        """Post ``desc`` on this endpoint's VI and reap its completion.

        Whoever posts a send pops it off ``send_done``, so the queue
        holds nothing between operations.  Raises :class:`ViaError` if
        the popped completion is not ``desc`` or ``desc`` did not
        succeed; ``what`` names the operation in the message."""
        self.ua.post_send(self.vi, desc)
        done = self.ua.send_done(self.vi)
        if done is not desc:
            raise ViaError(f"{what}: reaped a completion for another "
                           f"descriptor ({done.dtype.value}, "
                           f"{done.status})")
        if desc.status != "VIP_SUCCESS":
            raise ViaError(f"{what} failed: {desc.status}",
                           status=desc.status)

    def recv_chunk(self) -> tuple[bytes, bytes | None]:
        """Pop the next arrived chunk; returns ``(payload, immediate)``
        and reposts the slot."""
        desc = self.ua.recv_done(self.vi)
        if desc.status != "VIP_SUCCESS":
            raise ViaError(f"receive failed: {desc.status}",
                           status=desc.status)
        slot = self._slot_of(desc)
        payload = self.task.read(slot.va, desc.length_transferred)
        self.copies_bytes += desc.length_transferred
        immediate = desc.received_immediate
        self._post_slot(slot)
        return payload, immediate

    def try_recv_chunk(self) -> tuple[bytes, bytes | None] | None:
        """Like :meth:`recv_chunk` but returns None when nothing arrived."""
        try:
            return self.recv_chunk()
        except QueueEmpty:
            return None

    # -- control messages ----------------------------------------------------------

    def send_control(self, payload: bytes) -> None:
        """Send a small control message (rendezvous RTS/CTS/FIN)."""
        self.control_messages += 1
        self.send_chunk(payload, immediate=b"CTRL")

    def recv_control(self) -> bytes:
        """Receive a control message."""
        payload, imm = self.recv_chunk()
        if imm != b"CTRL":
            raise ViaError(f"expected control message, got immediate {imm!r}")
        return payload


def connect_endpoints(cluster: "Cluster", a: Endpoint, b: Endpoint) -> None:
    """Connect two endpoints' VIs across the cluster fabric."""
    cluster.fabric.connect(a.machine.nic, a.vi.vi_id,
                           b.machine.nic, b.vi.vi_id)


def make_pair(cluster: "Cluster",
              bounce_slots: int = 16,
              reliability: ReliabilityLevel =
              ReliabilityLevel.RELIABLE_DELIVERY,
              cache_max_pages: int | None = None
              ) -> tuple[Endpoint, Endpoint]:
    """Build and connect one endpoint on each of the cluster's first two
    machines."""
    a = Endpoint(cluster[0], bounce_slots=bounce_slots,
                 reliability=reliability, cache_max_pages=cache_max_pages)
    b = Endpoint(cluster[1], bounce_slots=bounce_slots,
                 reliability=reliability, cache_max_pages=cache_max_pages)
    connect_endpoints(cluster, a, b)
    return a, b
