"""The VI User Agent — a VIPL-flavoured user-level API.

One :class:`UserAgent` binds one task to one NIC (via its Kernel Agent)
and exposes the operations user code performs: memory registration,
VI/CQ creation, posting descriptors, and polling for completion.  Method
names follow Intel's VIPL ("Virtual Interface Provider Library") in
snake_case; each docstring names the ``Vip*`` call it stands for.

After setup, the data path (:meth:`post_send`, :meth:`post_recv`,
:meth:`send_done`, ...) involves **no kernel calls** — the point of the
VI Architecture.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import QueueEmpty
from repro.via.constants import ReliabilityLevel
from repro.via.cq import CompletionQueue
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.kernel_agent import KernelAgent, Registration
from repro.via.vi import VirtualInterface

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import Task


class UserAgent:
    """User-level handle on one NIC for one task."""

    def __init__(self, agent: KernelAgent, task: "Task") -> None:
        self.agent = agent
        self.task = task
        self.nic = agent.nic
        self.prot_tag = agent.open_nic(task)

    # ------------------------------------------------------- memory management

    def register_mem(self, va: int, nbytes: int, rdma_write: bool = False,
                     rdma_read: bool = False,
                     rdma_atomic: bool = False) -> Registration:
        """``VipRegisterMem``: register (and pin) a buffer."""
        return self.agent.register_memory(self.task, va, nbytes,
                                          rdma_write=rdma_write,
                                          rdma_read=rdma_read,
                                          rdma_atomic=rdma_atomic)

    def deregister_mem(self, reg: Registration | int) -> None:
        """``VipDeregisterMem``."""
        handle = reg if isinstance(reg, int) else reg.handle
        self.agent.deregister_memory(handle)

    # ----------------------------------------------------------------- VIs/CQs

    def create_cq(self, depth: int = 1024) -> CompletionQueue:
        """``VipCreateCQ`` (the CQ reports depth/overflow metrics to the
        kernel's observability when it is enabled, and completion
        observations to the kernel's analysis stream when it is armed)."""
        return CompletionQueue(depth, obs=self.agent.kernel.obs,
                               events=self.agent.kernel.events)

    def create_vi(self, reliability: ReliabilityLevel =
                  ReliabilityLevel.RELIABLE_DELIVERY,
                  send_cq: CompletionQueue | None = None,
                  recv_cq: CompletionQueue | None = None
                  ) -> VirtualInterface:
        """``VipCreateVi``."""
        return self.agent.create_vi(self.task, reliability=reliability,
                                    send_cq=send_cq, recv_cq=recv_cq)

    # ----------------------------------------------------------------- posting

    def post_send(self, vi: VirtualInterface, desc: Descriptor) -> None:
        """``VipPostSend`` — user-level, no kernel call; a post of one."""
        self.nic.post_send_many(vi.vi_id, [desc], self.task.pid)

    def post_recv(self, vi: VirtualInterface, desc: Descriptor) -> None:
        """``VipPostRecv`` — a post of one."""
        self.nic.post_recv_many(vi.vi_id, [desc], self.task.pid)

    def post_send_many(self, vi: VirtualInterface,
                       descs: "list[Descriptor]") -> int:
        """Batched ``VipPostSend`` — one doorbell for a descriptor list
        (see :meth:`repro.via.nic.VIANic.post_send_many`)."""
        return self.nic.post_send_many(vi.vi_id, descs, self.task.pid)

    def post_recv_many(self, vi: VirtualInterface,
                       descs: "list[Descriptor]") -> int:
        """Batched ``VipPostRecv``."""
        return self.nic.post_recv_many(vi.vi_id, descs, self.task.pid)

    # ---------------------------------------------------------------- completion

    def send_done(self, vi: VirtualInterface) -> Descriptor:
        """``VipSendDone``: pop the next completed send descriptor.

        Raises :class:`~repro.errors.QueueEmpty` when none is ready
        (``VIP_NOT_DONE``)."""
        if not vi.send_done:
            raise QueueEmpty(f"VI {vi.vi_id}: no completed send")
        return vi.send_done.popleft()

    def recv_done(self, vi: VirtualInterface) -> Descriptor:
        """``VipRecvDone``: pop the next completed receive descriptor."""
        if not vi.recv_done:
            raise QueueEmpty(f"VI {vi.vi_id}: no completed receive")
        return vi.recv_done.popleft()

    # -------------------------------------------------------------- conveniences

    def segment(self, reg: Registration, va: int | None = None,
                length: int | None = None) -> DataSegment:
        """Build a :class:`DataSegment` inside a registration (defaults
        to the whole region)."""
        if va is None:
            va = reg.va
        if length is None:
            length = reg.nbytes - (va - reg.va)
        return DataSegment(reg.handle, va, length)

    def send_bytes(self, vi: VirtualInterface, reg: Registration,
                   data: bytes, offset: int = 0) -> Descriptor:
        """Write ``data`` into the registered buffer and post a send for
        exactly those bytes.  Returns the posted descriptor."""
        va = reg.va + offset
        self.task.write(va, data)
        desc = Descriptor.send([DataSegment(reg.handle, va, len(data))])
        self.post_send(vi, desc)
        return desc

    def atomic_cmpswap(self, vi: VirtualInterface, reg: Registration,
                       remote_handle: int, remote_va: int, compare: int,
                       swap: int) -> Descriptor:
        """Post a remote compare-and-swap and return the completed
        descriptor; the original value is in ``atomic_original_value``
        (and in the local 8-byte landing at ``reg.va``)."""
        seg = DataSegment(reg.handle, reg.va, 8)
        desc = Descriptor.atomic_cmpswap([seg], remote_handle, remote_va,
                                         compare, swap)
        self.post_send(vi, desc)
        return desc

    def atomic_fetchadd(self, vi: VirtualInterface, reg: Registration,
                        remote_handle: int, remote_va: int,
                        add: int) -> Descriptor:
        """Post a remote fetch-and-add and return the completed
        descriptor (see :meth:`atomic_cmpswap`)."""
        seg = DataSegment(reg.handle, reg.va, 8)
        desc = Descriptor.atomic_fetchadd([seg], remote_handle, remote_va,
                                          add)
        self.post_send(vi, desc)
        return desc

    def recv_bytes(self, vi: VirtualInterface, desc: Descriptor) -> bytes:
        """Read the payload a completed receive descriptor landed in
        (through the *process's* page tables — so a stale-TPT DMA write
        is invisible here, exactly as in the paper)."""
        out = bytearray()
        remaining = desc.length_transferred
        for seg in desc.segments:
            if remaining <= 0:
                break
            n = min(seg.length, remaining)
            out += self.task.read(seg.va, n)
            remaining -= n
        return bytes(out)

