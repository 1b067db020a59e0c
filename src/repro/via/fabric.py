"""The interconnect fabric between VIA NICs.

Delivery is synchronous and deterministic: transmitting a packet calls
straight into the destination NIC's delivery routine, charging wire
latency to the (shared) simulated clock.  Faults can be injected two
ways: the legacy ``loss_rate`` drops packets uniformly, and an installed
:class:`~repro.sim.faults.FaultPlan` can additionally duplicate,
corrupt, or delay them.

For ``UNRELIABLE`` VIs a drop is silent (fire-and-forget).  For the
RELIABLE levels the fabric reports what happened to the sending NIC as
an :class:`Attempt` — delivered-and-ACKed, dropped, NACKed (the
link-layer CRC caught corruption), or delivered-but-ACK-lost — and the
*NIC* runs the retransmission protocol on top
(:meth:`~repro.via.nic.VIANic._round_trip`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.errors import ViaConnectionError
from repro.sim.rng import make_rng
from repro.via.constants import (
    VIP_SUCCESS, DescriptorType, ReliabilityLevel, ViState,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultPlan
    from repro.sim.trace import Trace
    from repro.via.nic import VIANic


def payload_checksum(payload: bytes) -> int:
    """The link-layer CRC a NIC stamps on (and verifies against) a
    packet's payload."""
    return zlib.crc32(payload)


@dataclass
class Packet:
    """One fabric packet (a VIA transfer fits in one simulator packet;
    segmentation does not change any behaviour the paper reasons about)."""

    kind: DescriptorType
    src_nic: str
    src_vi: int
    dst_nic: str
    dst_vi: int
    payload: bytes = b""
    immediate: bytes | None = None
    #: RDMA only
    remote_handle: int | None = None
    remote_va: int | None = None
    #: RDMA read only: how many bytes to fetch
    read_length: int = 0
    #: atomic only: 64-bit operands (CMPSWAP: compare/swap, FETCHADD: add)
    compare: int | None = None
    swap: int | None = None
    add: int | None = None
    #: sequence number on RELIABLE VIs (0 = unsequenced)
    seq: int = 0
    #: link-layer CRC of ``payload`` (None = sender did not stamp one)
    checksum: int | None = None


@dataclass
class Attempt:
    """Outcome of one wire attempt of a RELIABLE packet."""

    #: ``delivered`` | ``dropped`` | ``nack`` | ``ack_lost``
    kind: str
    #: receiver's completion status (``delivered``/``ack_lost`` only)
    status: str | None = None
    #: the response a round trip carries back when delivered: the
    #: RDMA-read payload or the atomic's original word
    value: Any = None


class Fabric:
    """Registry of NICs plus the wire between them."""

    def __init__(self, seed: int = 0, loss_rate: float = 0.0) -> None:
        self.nics: dict[str, "VIANic"] = {}
        self.loss_rate = loss_rate
        self._rng = make_rng(seed)
        self.packets_sent = 0
        self.packets_dropped = 0
        #: implicit hardware ACKs of RELIABLE deliveries (not counted as
        #: packets, so unreliable accounting is unchanged)
        self.acks_sent = 0
        self.acks_dropped = 0
        self.packets_nacked = 0
        self.fault_plan: "FaultPlan | None" = None
        self._connmgr = None

    @property
    def connmgr(self):
        """The fabric's client/server connection manager (lazy)."""
        if self._connmgr is None:
            from repro.via.connmgr import ConnectionManager
            self._connmgr = ConnectionManager(self)
        return self._connmgr

    # -- topology -----------------------------------------------------------

    def attach(self, nic: "VIANic") -> None:
        """Attach a NIC; names must be unique fabric-wide."""
        if nic.name in self.nics:
            raise ViaConnectionError(f"NIC name {nic.name!r} already attached")
        self.nics[nic.name] = nic
        nic.fabric = self

    def nic(self, name: str) -> "VIANic":
        """Look an attached NIC up by name."""
        nic = self.nics.get(name)
        if nic is None:
            raise ViaConnectionError(f"no NIC named {name!r} on this fabric")
        return nic

    # -- connection management ------------------------------------------------

    def connect(self, nic_a: "VIANic", vi_a: int, nic_b: "VIANic",
                vi_b: int) -> None:
        """Connect two VIs point-to-point (client/server handshake
        collapsed into one deterministic step)."""
        a = nic_a.vi(vi_a)
        b = nic_b.vi(vi_b)
        if a.state != ViState.IDLE or b.state != ViState.IDLE:
            raise ViaConnectionError(
                f"both VIs must be idle (got {a.state.value}, "
                f"{b.state.value})")
        if a.reliability != b.reliability:
            raise ViaConnectionError(
                f"reliability mismatch: {a.reliability.value} vs "
                f"{b.reliability.value}")
        if a is b:
            raise ViaConnectionError("cannot connect a VI to itself")
        a.peer = (nic_b.name, vi_b)
        b.peer = (nic_a.name, vi_a)
        a.state = b.state = ViState.CONNECTED

    def disconnect(self, nic_a: "VIANic", vi_a: int) -> None:
        """Tear a connection down from one side; the peer goes to ERROR
        if it was still connected (it lost its connection).

        The peer may already be *gone*, not just disconnected: when both
        ranks of a pair exit, the first exit destroys its VI while the
        survivor's ``peer`` pointer still names it.  A dangling peer is
        simply nothing to notify — it must not make the second teardown
        fail."""
        a = nic_a.vi(vi_a)
        if a.peer is not None:
            peer_nic, peer_vi = a.peer
            nic_b = self.nics.get(peer_nic)
            b = nic_b.vis.get(peer_vi) if nic_b is not None else None
            if b is not None and b.state == ViState.CONNECTED:
                b.enter_error()
        a.peer = None
        a.state = ViState.IDLE

    # -- the wire -----------------------------------------------------------------

    def _charge_wire(self, nic: "VIANic", nbytes: int) -> None:
        costs = nic.kernel.costs
        nic.kernel.clock.charge(costs.nic_wire_latency_ns, "wire")
        nic.kernel.clock.charge(costs.dma_ns(nbytes), "wire")

    def _roll_drop(self) -> bool:
        """One drop decision, combining the fault plan and the legacy
        uniform ``loss_rate``."""
        if self.fault_plan is not None and self.fault_plan.should_drop():
            return True
        return self.loss_rate > 0.0 and self._rng.random() < self.loss_rate

    def _crc_reject(self, trace: "Trace", packet: Packet,
                    reliability: ReliabilityLevel) -> Attempt:
        """Receiver CRC failure: a NACK, or a discard if unreliable."""
        self.packets_nacked += 1
        trace.emit("packet_nack", dst=packet.dst_nic, vi=packet.dst_vi,
                   seq=packet.seq)
        if reliability == ReliabilityLevel.UNRELIABLE:
            self.packets_dropped += 1
            trace.emit("packet_lost", dst=packet.dst_nic,
                       vi=packet.dst_vi, seq=packet.seq, cause="crc")
            return Attempt("dropped")
        return Attempt("nack")

    def _response_nack(self, trace: "Trace", packet: Packet) -> Attempt:
        """Requester CRC failure on a response: NACK, retry at once."""
        self.packets_nacked += 1
        trace.emit("packet_nack", dst=packet.src_nic, vi=packet.src_vi,
                   seq=packet.seq)
        return Attempt("nack")

    def attempt_delivery(self, src: "VIANic", packet: Packet,
                         reliability: ReliabilityLevel) -> Attempt:
        """One wire attempt: carry ``packet`` to its destination,
        injecting any planned faults, and report what happened.

        For RELIABLE levels a successful delivery also generates the
        implicit hardware ACK, which can itself be lost — the sender
        must then retransmit and rely on receiver-side deduplication.
        """
        plan = self.fault_plan
        trace = src.kernel.trace
        obs = src.kernel.obs
        self.packets_sent += 1
        if obs.enabled:
            obs.metrics.counter("via.fabric.packets_sent").inc()

        self._charge_wire(src, len(packet.payload))

        # Fast path: a healthy fabric (no fault plan, no legacy loss
        # rate) delivers without rolling for drops, corruption,
        # duplication, or ACK loss — the common case of the hot
        # send/receive loop pays for none of the fault machinery.
        if plan is None and self.loss_rate == 0.0:
            if (packet.checksum is not None
                    and payload_checksum(packet.payload)
                    != packet.checksum):
                return self._crc_reject(trace, packet, reliability)
            status = self.nic(packet.dst_nic).deliver(packet, reliability)
            if reliability != ReliabilityLevel.UNRELIABLE:
                self.acks_sent += 1
            return Attempt("delivered", status)

        if plan is not None:
            extra_ns = plan.delay()
            if extra_ns:
                src.kernel.clock.charge(extra_ns, "wire")
                trace.emit("packet_delayed", dst=packet.dst_nic,
                           vi=packet.dst_vi, seq=packet.seq,
                           extra_ns=extra_ns)

        if self._roll_drop():
            self.packets_dropped += 1
            trace.emit("packet_lost", dst=packet.dst_nic,
                       vi=packet.dst_vi, seq=packet.seq)
            return Attempt("dropped")

        wire_packet = packet
        if plan is not None and plan.should_corrupt():
            wire_packet = replace(packet,
                                  payload=plan.corrupt(packet.payload))
            trace.emit("packet_corrupted", dst=packet.dst_nic,
                       vi=packet.dst_vi, seq=packet.seq)

        # Link-layer CRC check at the receiving NIC.  A sender that
        # stamped no checksum (legacy/control path) is not verified.
        if (wire_packet.checksum is not None
                and payload_checksum(wire_packet.payload)
                != wire_packet.checksum):
            return self._crc_reject(trace, packet, reliability)

        dst = self.nic(packet.dst_nic)
        status = dst.deliver(wire_packet, reliability)

        if plan is not None and plan.should_duplicate():
            trace.emit("packet_duplicated", dst=packet.dst_nic,
                       vi=packet.dst_vi, seq=packet.seq)
            # RELIABLE receivers deduplicate on seq; UNRELIABLE VIs see
            # the duplicate, exactly as on a real unreliable link.
            dst.deliver(wire_packet, reliability)

        if reliability != ReliabilityLevel.UNRELIABLE:
            self.acks_sent += 1
            if self._roll_drop():
                self.acks_dropped += 1
                trace.emit("ack_lost", dst=packet.src_nic,
                           vi=packet.src_vi, seq=packet.seq)
                return Attempt("ack_lost", status)
        return Attempt("delivered", status)

    def attempt_rdma_read(self, src: "VIANic", packet: Packet,
                          reliability: ReliabilityLevel) -> Attempt:
        """One round-trip attempt of an RDMA-read request.

        The request and the response are each subject to loss; the
        response payload is subject to corruption (caught by CRC and
        reported as a NACK so the requester retries immediately).
        RDMA reads are idempotent, so no deduplication is needed.
        """
        plan = self.fault_plan
        trace = src.kernel.trace
        obs = src.kernel.obs
        self.packets_sent += 2   # request + response
        if obs.enabled:
            obs.metrics.counter("via.fabric.packets_sent").inc(2)
        self._charge_wire(src, 0)

        if self._roll_drop():   # request lost
            self.packets_dropped += 1
            trace.emit("packet_lost", dst=packet.dst_nic,
                       vi=packet.dst_vi, seq=packet.seq, rdma="read_req")
            return Attempt("dropped")

        dst = self.nic(packet.dst_nic)
        status, payload = dst.serve_rdma_read(packet, reliability)
        self._charge_wire(src, len(payload))

        if status == VIP_SUCCESS and self._roll_drop():   # response lost
            self.packets_dropped += 1
            trace.emit("packet_lost", dst=packet.src_nic,
                       vi=packet.src_vi, seq=packet.seq, rdma="read_resp")
            return Attempt("dropped")

        if (status == VIP_SUCCESS and plan is not None
                and plan.should_corrupt()):
            trace.emit("packet_corrupted", dst=packet.src_nic,
                       vi=packet.src_vi, seq=packet.seq, rdma="read_resp")
            return self._response_nack(trace, packet)

        return Attempt("delivered", status, payload)

    def attempt_atomic(self, src: "VIANic", packet: Packet,
                       reliability: ReliabilityLevel) -> Attempt:
        """One round-trip attempt of a remote atomic (CMPSWAP/FETCHADD).

        Shaped like :meth:`attempt_rdma_read`, with one crucial
        difference: an atomic is *not* idempotent.  When the response is
        lost *after* the responder executed the RMW, the requester's
        retransmit must be answered from the responder's per-sequence
        response cache (see :meth:`~repro.via.nic.VIANic.serve_atomic`),
        never re-executed — re-applying a FETCH_ADD or re-judging a
        CMPSWAP against the mutated word would corrupt the target.
        The fabric deliberately rolls the response-loss fault *after*
        calling the responder, so chaos plans exercise exactly that
        executed-but-unacknowledged window.
        """
        plan = self.fault_plan
        trace = src.kernel.trace
        obs = src.kernel.obs
        self.packets_sent += 2   # request + response
        if obs.enabled:
            obs.metrics.counter("via.fabric.packets_sent").inc(2)
        # request carries two 8-byte operands, response one 8-byte word
        self._charge_wire(src, 16)

        if self._roll_drop():   # request lost (never executed — safe)
            self.packets_dropped += 1
            trace.emit("packet_lost", dst=packet.dst_nic,
                       vi=packet.dst_vi, seq=packet.seq, atomic="req")
            return Attempt("dropped")

        # Duplicate the *request*: the responder sees the same seq twice
        # and must serve the second from its dedup cache.
        dst = self.nic(packet.dst_nic)
        if plan is not None and plan.should_duplicate():
            trace.emit("packet_duplicated", dst=packet.dst_nic,
                       vi=packet.dst_vi, seq=packet.seq, atomic="req")
            dst.serve_atomic(packet, reliability)

        status, original = dst.serve_atomic(packet, reliability)
        self._charge_wire(src, 8)

        if status == VIP_SUCCESS and self._roll_drop():  # response lost
            self.packets_dropped += 1
            trace.emit("packet_lost", dst=packet.src_nic,
                       vi=packet.src_vi, seq=packet.seq, atomic="resp")
            return Attempt("dropped")

        if (status == VIP_SUCCESS and plan is not None
                and plan.should_corrupt()):
            trace.emit("packet_corrupted", dst=packet.src_nic,
                       vi=packet.src_vi, seq=packet.seq, atomic="resp")
            return self._response_nack(trace, packet)

        return Attempt("delivered", status, original)
