"""One MPI rank: point-to-point messaging with tag matching.

Transport layout follows the collection's VIA MPI designs: every rank
pair gets a dedicated VI connection ("zwei VI's ... zwischen jedem Paar
von MPI-Tasks"), messages travel as enveloped chunks, small messages go
eager (copied through preregistered bounce buffers, buffered at the
receiver as *unexpected messages* when no receive is posted), large
messages go rendezvous: RTS → receiver registers its user buffer and
answers CTS(handle, va) → sender RDMA-writes → FIN.

Both directions of the protocol exercise exactly the dynamic
registration whose reliability the paper is about; registrations go
through each endpoint's :class:`~repro.core.regcache.RegistrationCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ViaError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, MAX_TAG
from repro.mpi.envelope import (
    HEADER_SIZE, KIND_CTS, KIND_EAGER_BODY, KIND_EAGER_FIRST, KIND_FIN,
    KIND_RTS, Envelope, deframe, frame,
)
from repro.mpi.persistent import PersistentRequest
from repro.mpi.requests import Request, Status
from repro.msg.endpoint import Endpoint
from repro.via.descriptor import DataSegment, Descriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import Task
    from repro.mpi.world import MpiWorld
    from repro.via.machine import Machine

#: payload bytes per chunk after the envelope header
CHUNK_PAYLOAD = Endpoint.CHUNK - HEADER_SIZE


@dataclass
class _Inbound:
    """A fully arrived but not yet matched message."""

    source: int
    tag: int
    context: int
    nbytes: int
    seq: int
    #: eager payload, or None for a rendezvous RTS awaiting a grant
    data: bytes | None

    @property
    def is_rts(self) -> bool:
        return self.data is None


@dataclass
class _Assembly:
    """Per-peer eager reassembly state."""

    envelope: Envelope
    buffer: bytearray
    received: int


@dataclass
class _PendingSend:
    """Sender-side rendezvous state awaiting CTS."""

    request: Request
    dest: int
    va: int
    nbytes: int


@dataclass
class _PendingRdvRecv:
    """Receiver-side rendezvous state awaiting FIN."""

    request: Request
    source: int
    va: int
    nbytes: int


class MpiRank:
    """One rank of an :class:`~repro.mpi.world.MpiWorld`."""

    def __init__(self, world: "MpiWorld", index: int,
                 machine: "Machine", task: "Task") -> None:
        self.world = world
        self.index = index
        self.machine = machine
        self.task = task
        #: peer index → endpoint (one VI per pair, built by the world)
        self.endpoints: dict[int, Endpoint] = {}
        self._send_seq: dict[int, int] = {}
        self._assembly: dict[int, _Assembly | None] = {}
        self._unexpected: list[_Inbound] = []
        self._posted: list[Request] = []
        self._pending_sends: dict[tuple[int, int], _PendingSend] = {}
        self._pending_rdv_recvs: dict[tuple[int, int],
                                      _PendingRdvRecv] = {}
        self._in_progress = False
        # statistics
        self.eager_sent = 0
        self.rendezvous_sent = 0
        self.unexpected_peak = 0

    # ----------------------------------------------------------- send side

    def _next_seq(self, dest: int) -> int:
        seq = self._send_seq.get(dest, 0) + 1
        self._send_seq[dest] = seq
        return seq

    def _check_args(self, peer: int, tag: int) -> None:
        if peer == self.index:
            raise ViaError("self-sends are not supported")
        if peer not in self.endpoints:
            raise ViaError(f"rank {self.index} has no connection to "
                           f"{peer}")
        if not (0 <= tag <= MAX_TAG):
            raise ViaError(f"tag {tag} outside [0, {MAX_TAG}]")

    def isend(self, dest: int, tag: int, va: int, nbytes: int,
              context: int = 0) -> Request:
        """Non-blocking send of ``[va, va+nbytes)`` to ``dest``."""
        self._check_args(dest, tag)
        req = Request(rank=self, kind="send", source=dest, tag=tag,
                      context=context, va=va, max_nbytes=nbytes)
        seq = self._next_seq(dest)
        if nbytes <= self.world.eager_threshold:
            self._send_eager(dest, tag, context, va, nbytes, seq)
            req.complete(Status(self.index, tag, nbytes))
            self.eager_sent += 1
        else:
            self._pending_sends[(dest, seq)] = _PendingSend(
                req, dest, va, nbytes)
            env = Envelope(KIND_RTS, self.index, tag, context, nbytes,
                           seq)
            self.endpoints[dest].send_chunk(frame(env))
            self.rendezvous_sent += 1
            self.world.rank(dest).progress()
        return req

    def send(self, dest: int, tag: int, va: int, nbytes: int,
             context: int = 0) -> None:
        """Blocking send."""
        self.isend(dest, tag, va, nbytes, context).wait()

    def _send_eager(self, dest: int, tag: int, context: int, va: int,
                    nbytes: int, seq: int) -> None:
        ep = self.endpoints[dest]
        peer = self.world.rank(dest)
        first = min(nbytes, CHUNK_PAYLOAD)
        env = Envelope(KIND_EAGER_FIRST, self.index, tag, context,
                       nbytes, seq)
        ep.send_chunk(frame(env, self.task.read(va, first)))
        peer.progress()
        offset = first
        while offset < nbytes:
            n = min(nbytes - offset, CHUNK_PAYLOAD)
            env = Envelope(KIND_EAGER_BODY, self.index, tag, context, n,
                           seq)
            ep.send_chunk(frame(env, self.task.read(va + offset, n)))
            offset += n
            peer.progress()   # keeps bounce credits from overflowing

    # ----------------------------------------------------------- recv side

    def irecv(self, source: int, tag: int, va: int,
              max_nbytes: int, context: int = 0) -> Request:
        """Non-blocking receive into ``[va, va+max_nbytes)``.

        ``source`` may be :data:`~repro.mpi.constants.ANY_SOURCE`, and
        ``tag`` may be :data:`~repro.mpi.constants.ANY_TAG`.
        """
        req = Request(rank=self, kind="recv", source=source, tag=tag,
                      context=context, va=va, max_nbytes=max_nbytes)
        matched = self._match_unexpected(req)
        if matched is not None:
            self._finalize_match(req, matched)
        else:
            self._posted.append(req)
        return req

    def recv(self, source: int, tag: int, va: int, max_nbytes: int,
             context: int = 0) -> Status:
        """Blocking receive."""
        return self.irecv(source, tag, va, max_nbytes, context).wait()

    @staticmethod
    def _matches(req: Request, msg: _Inbound) -> bool:
        return (req.context == msg.context
                and req.source in (ANY_SOURCE, msg.source)
                and req.tag in (ANY_TAG, msg.tag))

    def _match_unexpected(self, req: Request) -> _Inbound | None:
        for i, msg in enumerate(self._unexpected):
            if self._matches(req, msg):
                return self._unexpected.pop(i)
        return None

    def _finalize_match(self, req: Request, msg: _Inbound) -> None:
        if msg.is_rts:
            self._grant_rendezvous(req, msg)
            return
        assert msg.data is not None
        if len(msg.data) > req.max_nbytes:
            raise ViaError(
                f"message truncation: {len(msg.data)} bytes into a "
                f"{req.max_nbytes}-byte receive")
        self.task.write(req.va, msg.data)
        req.complete(Status(msg.source, msg.tag, len(msg.data)))

    def _grant_rendezvous(self, req: Request, msg: _Inbound) -> None:
        """Register the receive buffer and grant the sender access."""
        if msg.nbytes > req.max_nbytes:
            raise ViaError(
                f"message truncation: RTS of {msg.nbytes} bytes into a "
                f"{req.max_nbytes}-byte receive")
        ep = self.endpoints[msg.source]
        reg = ep.cache.acquire(req.va, msg.nbytes, rdma_write=True)
        self._pending_rdv_recvs[(msg.source, msg.seq)] = _PendingRdvRecv(
            req, msg.source, req.va, msg.nbytes)
        env = Envelope(KIND_CTS, self.index, msg.tag, msg.context,
                       msg.nbytes, msg.seq, arg0=reg.handle,
                       arg1=req.va)
        ep.send_chunk(frame(env))
        self.world.rank(msg.source).progress()

    # --------------------------------------------------------- progress engine

    def progress(self) -> bool:
        """Drain all inbound chunks once; True if anything moved."""
        if self._in_progress:
            return False
        self._in_progress = True
        moved = False
        try:
            for peer in sorted(self.endpoints):
                while True:
                    got = self.endpoints[peer].try_recv_chunk()
                    if got is None:
                        break
                    moved = True
                    self._dispatch(peer, got[0])
        finally:
            self._in_progress = False
        return moved

    def _dispatch(self, peer: int, chunk: bytes) -> None:
        env, payload = deframe(chunk)
        if env.kind == KIND_EAGER_FIRST:
            self._on_eager_first(peer, env, payload)
        elif env.kind == KIND_EAGER_BODY:
            self._on_eager_body(peer, env, payload)
        elif env.kind == KIND_RTS:
            self._deliver(_Inbound(env.src_rank, env.tag, env.context,
                                   env.nbytes, env.seq, data=None))
        elif env.kind == KIND_CTS:
            self._on_cts(env)
        elif env.kind == KIND_FIN:
            self._on_fin(env)
        else:  # pragma: no cover - deframe already validated
            raise ViaError(f"unhandled envelope kind {env.kind!r}")

    def _on_eager_first(self, peer: int, env: Envelope,
                        payload: bytes) -> None:
        if env.nbytes <= len(payload):
            self._deliver(_Inbound(env.src_rank, env.tag, env.context,
                                   env.nbytes, env.seq,
                                   data=payload[:env.nbytes]))
            return
        buf = bytearray(env.nbytes)
        buf[:len(payload)] = payload
        self._assembly[peer] = _Assembly(env, buf, len(payload))

    def _on_eager_body(self, peer: int, env: Envelope,
                       payload: bytes) -> None:
        asm = self._assembly.get(peer)
        if asm is None or asm.envelope.seq != env.seq:
            raise ViaError(
                f"rank {self.index}: body chunk without matching "
                f"assembly from peer {peer}")
        asm.buffer[asm.received:asm.received + len(payload)] = payload
        asm.received += len(payload)
        if asm.received >= asm.envelope.nbytes:
            self._assembly[peer] = None
            e = asm.envelope
            self._deliver(_Inbound(e.src_rank, e.tag, e.context,
                                   e.nbytes, e.seq, bytes(asm.buffer)))

    def _deliver(self, msg: _Inbound) -> None:
        for i, req in enumerate(self._posted):
            if self._matches(req, msg):
                self._posted.pop(i)
                self._finalize_match(req, msg)
                return
        self._unexpected.append(msg)
        self.unexpected_peak = max(self.unexpected_peak,
                                   len(self._unexpected))

    def _on_cts(self, env: Envelope) -> None:
        """Sender side: the receiver granted the rendezvous — RDMA the
        payload across and send FIN."""
        key = (env.src_rank, env.seq)
        pending = self._pending_sends.pop(key, None)
        if pending is None:
            raise ViaError(
                f"rank {self.index}: CTS for unknown send seq {env.seq}")
        ep = self.endpoints[pending.dest]
        sreg = ep.cache.acquire(pending.va, pending.nbytes)
        desc = Descriptor.rdma_write(
            [DataSegment(sreg.handle, pending.va, pending.nbytes)],
            remote_handle=env.arg0, remote_va=env.arg1)
        ep.post(desc, "rendezvous RDMA")
        ep.cache.release(pending.va, pending.nbytes)
        fin = Envelope(KIND_FIN, self.index, env.tag, env.context,
                       pending.nbytes, env.seq)
        ep.send_chunk(frame(fin))
        pending.request.complete(
            Status(self.index, env.tag, pending.nbytes))
        self.world.rank(pending.dest).progress()

    def _on_fin(self, env: Envelope) -> None:
        """Receiver side: the RDMA landed — complete the receive."""
        key = (env.src_rank, env.seq)
        pending = self._pending_rdv_recvs.pop(key, None)
        if pending is None:
            raise ViaError(
                f"rank {self.index}: FIN for unknown rendezvous "
                f"seq {env.seq}")
        ep = self.endpoints[pending.source]
        ep.cache.release(pending.va, pending.nbytes)
        pending.request.complete(
            Status(pending.source, env.tag, pending.nbytes))

    # ------------------------------------------------------------ persistent

    def send_init(self, dest: int, tag: int, va: int, nbytes: int,
                  context: int = 0):
        """Create a persistent send request (``MPI_Send_init``)."""
        self._check_args(dest, tag)
        return PersistentRequest(self, "send", dest, tag, va, nbytes,
                                 context)

    def recv_init(self, source: int, tag: int, va: int, nbytes: int,
                  context: int = 0):
        """Create a persistent receive request (``MPI_Recv_init``)."""
        return PersistentRequest(self, "recv", source, tag, va, nbytes,
                                 context)
