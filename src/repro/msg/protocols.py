"""Message-transfer protocols.

Three protocols in the style the companion papers describe for VIA MPI
implementations, all orchestrated over real simulated control messages:

* **eager** — the payload is copied through preregistered bounce buffers
  chunk by chunk.  No registration in the critical path; one CPU copy on
  each side.  Wins for small messages.
* **rendezvous-copy** — an RTS/CTS handshake, then data flows through
  bounce buffers into the receiver, which copies it to the user buffer.
  One copy on the receive side (the "one copy VIA protocol").
* **rendezvous-zero-copy** — RTS; the receiver registers its *user*
  buffer on the fly (dynamically!) and returns its handle in the CTS;
  the sender registers its user buffer and RDMA-writes straight across;
  FIN completes.  No copies — but two registrations on the critical
  path, which is why the registration cache matters and why those
  registrations must be *reliable* (the paper's subject).

Because simulation is synchronous, a protocol object orchestrates both
ranks; every handshake message is nonetheless a genuine VIA transfer
with full simulated cost.
"""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass, field

from repro.errors import ViaError
from repro.msg.endpoint import Endpoint
from repro.sim.faults import crash_if_due
from repro.via.descriptor import DataSegment, Descriptor

_RTS = struct.Struct("<4sQQ")   # magic, nbytes, msg_id
_CTS = struct.Struct("<4sQQQ")  # magic, handle, remote_va, msg_id
_FIN = struct.Struct("<4sQ")    # magic, msg_id
_CPY = struct.Struct("<4sQ")    # magic, msg_id — "degrade to copy mode"


@dataclass
class TransferResult:
    """Observables of one transfer."""

    protocol: str
    nbytes: int
    ok: bool
    sim_ns: int                     #: simulated wall time of the transfer
    copies_bytes: int = 0           #: CPU-copied bytes (both sides)
    control_messages: int = 0
    registrations: int = 0          #: registrations on the critical path
    cache_hits: int = 0
    corrupt: bool = False           #: payload mismatch at the receiver
    #: the protocol fell back to a slower mode (copy instead of
    #: zero-copy) because dynamic registration failed
    degraded: bool = False
    #: registration attempts the caches retried under pressure
    registration_retries: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def bandwidth_mb_s(self) -> float:
        """Simulated bandwidth in MB/s."""
        if self.sim_ns <= 0:
            return float("inf")
        return self.nbytes / (self.sim_ns / 1e9) / 1e6


class Protocol(abc.ABC):
    """A transfer protocol between two connected endpoints."""

    name: str = "abstract"

    @abc.abstractmethod
    def _transfer(self, sender: Endpoint, receiver: Endpoint,
                  src_va: int, dst_va: int, nbytes: int,
                  result: TransferResult) -> None:
        """Move ``nbytes`` from sender's ``src_va`` to receiver's
        ``dst_va``."""

    def transfer(self, sender: Endpoint, receiver: Endpoint,
                 src_va: int, dst_va: int, nbytes: int) -> TransferResult:
        """Run the protocol and collect observables.

        The transfer is a span: a ``msg_transfer_start`` record before
        it and a ``msg_transfer_done`` record once it returns (none if
        it raises)."""
        kernel = sender.machine.kernel
        clock = kernel.clock
        trace = kernel.trace
        obs = kernel.obs
        copies0 = sender.copies_bytes + receiver.copies_bytes
        ctrl0 = sender.control_messages + receiver.control_messages
        retries0 = sender.cache.stats.retries + receiver.cache.stats.retries
        result = TransferResult(protocol=self.name, nbytes=nbytes,
                                ok=False, sim_ns=0)
        trace.emit("msg_transfer_start", protocol=self.name, nbytes=nbytes)
        with clock.measure() as span:
            self._transfer(sender, receiver, src_va, dst_va, nbytes, result)
        trace.emit("msg_transfer_done", protocol=self.name, nbytes=nbytes,
                   corrupt=result.corrupt)
        result.sim_ns = span.elapsed_ns
        result.copies_bytes = (sender.copies_bytes
                               + receiver.copies_bytes - copies0)
        result.control_messages = (sender.control_messages
                                   + receiver.control_messages - ctrl0)
        result.registration_retries = (sender.cache.stats.retries
                                       + receiver.cache.stats.retries
                                       - retries0)
        result.ok = not result.corrupt
        if obs.enabled:
            obs.metrics.histogram("msg.transfer_ns").observe(result.sim_ns)
        return result

    # -- steps shared by protocols -------------------------------------------

    def _copy_through_bounce(self, sender: Endpoint, receiver: Endpoint,
                             src_va: int, dst_va: int, nbytes: int,
                             result: TransferResult) -> None:
        """Move the payload chunk by chunk through the preregistered
        bounce buffers — one CPU copy on the receive side — then
        verify it."""
        offset = 0
        while offset < nbytes:
            n = min(Endpoint.CHUNK, nbytes - offset)
            data = sender.task.read(src_va + offset, n)
            sender.send_chunk(data)
            payload, _ = receiver.recv_chunk()
            receiver.task.write(dst_va + offset, payload)
            receiver.copies_bytes += len(payload)
            offset += n
        self._verify(sender, receiver, src_va, dst_va, nbytes, result)


    @staticmethod
    def _verify(sender: Endpoint, receiver: Endpoint, src_va: int,
                dst_va: int, nbytes: int, result: TransferResult) -> None:
        """Compare payloads through both processes' *own* page tables —
        how the paper detects that a stale DMA never arrived."""
        sample = min(nbytes, 64 * 1024)
        sent = sender.task.read(src_va, sample)
        got = receiver.task.read(dst_va, sample)
        if sent != got:
            result.corrupt = True
            result.notes.append(
                f"payload mismatch in first {sample} bytes")
        if nbytes > sample:   # also probe the tail
            sent_t = sender.task.read(src_va + nbytes - 64, 64)
            got_t = receiver.task.read(dst_va + nbytes - 64, 64)
            if sent_t != got_t:
                result.corrupt = True
                result.notes.append("payload mismatch in tail")


class _UserBufferProtocol(Protocol):
    """A protocol that registers user buffers on the critical path,
    through the endpoint's registration cache or directly."""

    def __init__(self, use_cache: bool = True) -> None:
        self.use_cache = use_cache

    def _register(self, ep: Endpoint, va: int, nbytes: int,
                  result: TransferResult, **attrs):
        """Register through the cache or directly, updating counters."""
        if self.use_cache:
            hits0 = ep.cache.stats.hits
            reg = ep.cache.acquire(va, nbytes, **attrs)
            if ep.cache.stats.hits > hits0:
                result.cache_hits += 1
            else:
                result.registrations += 1
            return reg, True
        result.registrations += 1
        return ep.ua.register_mem(va, nbytes, **attrs), False

    def _release(self, ep: Endpoint, reg, cached: bool, va: int,
                 nbytes: int) -> None:
        if cached:
            ep.cache.release(va, nbytes)
        else:
            ep.ua.deregister_mem(reg)


class EagerProtocol(Protocol):
    """Copy through bounce buffers, chunk by chunk."""

    name = "eager"

    def _transfer(self, sender: Endpoint, receiver: Endpoint,
                  src_va: int, dst_va: int, nbytes: int,
                  result: TransferResult) -> None:
        self._copy_through_bounce(sender, receiver, src_va, dst_va,
                                  nbytes, result)


class RendezvousCopyProtocol(Protocol):
    """RTS/CTS handshake, data through bounce buffers, one receive copy."""

    name = "rendezvous-copy"

    def _transfer(self, sender: Endpoint, receiver: Endpoint,
                  src_va: int, dst_va: int, nbytes: int,
                  result: TransferResult) -> None:
        sender.send_control(_RTS.pack(b"RTS!", nbytes, 1))
        rts = receiver.recv_control()
        magic, size, _ = _RTS.unpack(rts)
        assert magic == b"RTS!" and size == nbytes
        receiver.send_control(_CTS.pack(b"CTS!", 0, 0, 1))
        cts = sender.recv_control()
        assert _CTS.unpack(cts)[0] == b"CTS!"
        self._copy_through_bounce(sender, receiver, src_va, dst_va,
                                  nbytes, result)


class PioProtocol(_UserBufferProtocol):
    """Programmed-I/O transfer — the SCI shared-memory baseline.

    The sender's **CPU** stores the payload directly into the receiver's
    exported (registered, RDMA-write-enabled) buffer through a mapped
    window: minimal latency, but the CPU is busy for the whole transfer
    — the companion papers' "the CPU participates actively on the data
    transfer" case whose cost motivates protected user-level DMA.

    Implemented over the same TPT translation the NIC uses (an imported
    window is exactly a remote translation), with the transfer time
    charged to the CPU-busy ``pio`` category.
    """

    name = "pio"

    def _transfer(self, sender: Endpoint, receiver: Endpoint,
                  src_va: int, dst_va: int, nbytes: int,
                  result: TransferResult) -> None:
        kernel_r = receiver.machine.kernel
        clock = sender.machine.kernel.clock
        costs = sender.machine.kernel.costs
        # The receiver exports its buffer (registration pins it so the
        # window's physical pages cannot move — same requirement as DMA).
        rreg, cached = self._register(receiver, dst_va, nbytes, result,
                                      rdma_write=True)
        # The NIC-level wrapper (not tpt.translate directly) so an ODP
        # registration's first touch fault-services instead of failing.
        segs = receiver.machine.nic._tpt_translate(
            rreg.handle, dst_va, nbytes, rreg.region.prot_tag,
            rdma_write=True)
        # CPU-driven stores: first-word latency plus streaming cost.
        # The stores land through the translated window as one iovec —
        # no per-page slicing of the payload.
        payload = sender.task.read(src_va, nbytes)
        clock.charge(costs.pio_word_ns, "pio")
        clock.charge(int(costs.pio_stream_per_byte_ns * nbytes), "pio")
        clock.charge(costs.nic_wire_latency_ns, "wire")
        kernel_r.phys.write_iovec(segs, payload)
        self._release(receiver, rreg, cached, dst_va, nbytes)
        self._verify(sender, receiver, src_va, dst_va, nbytes, result)


class RendezvousZeroCopyProtocol(_UserBufferProtocol):
    """RTS → receiver registers user buffer → CTS(handle) → sender RDMA
    writes → FIN.  Dynamic registration on the critical path."""

    def __init__(self, use_cache: bool = True) -> None:
        super().__init__(use_cache)
        self.name = ("rendezvous-zerocopy+cache" if use_cache
                     else "rendezvous-zerocopy")

    def _degrade_to_copy(self, sender: Endpoint, receiver: Endpoint,
                         src_va: int, dst_va: int, nbytes: int,
                         result: TransferResult, exc: ViaError,
                         side: str) -> None:
        """Dynamic registration failed: finish the transfer through the
        preregistered bounce buffers instead (the copy protocol needs no
        registration on the critical path).  The degrading side tells
        its peer with a CPY control message."""
        result.degraded = True
        result.notes.append(
            f"{side} registration failed ({exc.status}); "
            f"degraded to copy protocol")
        sender.machine.kernel.trace.emit(
            "protocol_fallback", protocol=self.name, side=side,
            status=exc.status, nbytes=nbytes)
        if side == "receiver":
            receiver.send_control(_CPY.pack(b"CPY!", 1))
            assert _CPY.unpack(sender.recv_control())[0] == b"CPY!"
        else:
            sender.send_control(_CPY.pack(b"CPY!", 1))
            assert _CPY.unpack(receiver.recv_control())[0] == b"CPY!"
        self._copy_through_bounce(sender, receiver, src_va, dst_va,
                                  nbytes, result)

    @staticmethod
    def _crash(ep: Endpoint, point: str) -> None:
        """Kill ``ep``'s process here if its machine's fault plan says
        so (the kill-at-every-step chaos sweep).  Raises
        :class:`~repro.errors.ProcessKilled` — a *kernel* error, so it
        escapes the ``ViaError`` degrade-to-copy handlers."""
        crash_if_due(ep.machine.agent.fault_plan, ep.machine.kernel,
                     ep.task, point)

    def _transfer(self, sender: Endpoint, receiver: Endpoint,
                  src_va: int, dst_va: int, nbytes: int,
                  result: TransferResult) -> None:
        # RTS: "I have nbytes for you."
        sender.send_control(_RTS.pack(b"RTS!", nbytes, 1))
        self._crash(sender, "xfer.rts_sent")
        rts = receiver.recv_control()
        _, size, _ = _RTS.unpack(rts)
        self._crash(receiver, "xfer.rts_received")

        # Receiver registers its *user* buffer dynamically and exposes it.
        try:
            rreg, rcached = self._register(receiver, dst_va, size, result,
                                           rdma_write=True)
        except ViaError as exc:
            self._degrade_to_copy(sender, receiver, src_va, dst_va,
                                  nbytes, result, exc, side="receiver")
            return
        self._crash(receiver, "xfer.dst_registered")
        receiver.send_control(_CTS.pack(b"CTS!", rreg.handle, dst_va, 1))
        cts = sender.recv_control()
        _, rhandle, rva, _ = _CTS.unpack(cts)
        self._crash(sender, "xfer.cts_received")

        # Sender registers its user buffer and RDMA-writes directly.
        try:
            sreg, scached = self._register(sender, src_va, nbytes, result)
        except ViaError as exc:
            self._release(receiver, rreg, rcached, dst_va, size)
            self._degrade_to_copy(sender, receiver, src_va, dst_va,
                                  nbytes, result, exc, side="sender")
            return
        self._crash(sender, "xfer.src_registered")
        desc = Descriptor.rdma_write(
            [DataSegment(sreg.handle, src_va, nbytes)],
            remote_handle=rhandle, remote_va=rva)
        sender.post(desc, "RDMA write")
        self._crash(sender, "xfer.rdma_done")

        # FIN so the receiver knows the data landed.
        sender.send_control(_FIN.pack(b"FIN!", 1))
        self._crash(sender, "xfer.fin_sent")
        fin = receiver.recv_control()
        assert _FIN.unpack(fin)[0] == b"FIN!"
        self._crash(receiver, "xfer.fin_received")

        self._release(sender, sreg, scached, src_va, nbytes)
        self._release(receiver, rreg, rcached, dst_va, size)
        self._verify(sender, receiver, src_va, dst_va, nbytes, result)
