"""The VIA NIC: descriptor processing, protection enforcement, DMA.

Processing is synchronous and deterministic: posting a send executes the
transfer immediately (doorbell → descriptor fetch → TPT translation →
DMA → wire → remote delivery), charging every step to the simulated
clock.  All memory traffic goes through the NIC's own
:class:`~repro.hw.dma.DMAEngine` using **physical addresses recorded in
the TPT at registration time** — the property under test.

For RELIABLE VIs the NIC also runs the retransmission protocol the VIA
spec mandates: every data packet carries a sequence number and a CRC;
delivery is acknowledged implicitly; a lost packet (or lost ACK) expires
a retransmission timer with exponential backoff; a corrupted packet is
NACKed and resent immediately; the receiver deduplicates retransmits by
sequence number.  When the retry budget is exhausted the connection is
declared lost: the VI transitions to ``ERROR`` and every outstanding
descriptor completes with ``VIP_ERROR_CONN_LOST``.  RDMA reads and
remote atomics are round trips on the same protocol: one loop,
:meth:`VIANic._round_trip`, drives all three kinds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.analysis.events import DMA_RESUME, DMA_SUSPEND, DOORBELL
from repro.errors import (
    DescriptorError, DMAFault, KernelError, NotRegistered, ProcessKilled,
    ProtectionError, TranslationFault, ViaConnectionError, ViaError,
)
from repro.hw.dma import DMAEngine
from repro.hw.physmem import PhysicalMemory
from repro.kernel.flags import VM_LOCKED
from repro.via.constants import (
    ATOMIC_OPERAND_BYTES, ATOMIC_RESPONSE_CACHE, ATOMIC_TYPES,
    MAX_RETRANSMITS, VIP_DESCRIPTOR_ERROR, VIP_ERROR_CONN_LOST,
    VIP_ERROR_NIC, VIP_INVALID_MEMORY, VIP_INVALID_PARAMETER,
    VIP_NOT_DONE, VIP_SUCCESS, DescriptorType, ReliabilityLevel, ViState,
)
from repro.via.cq import CompletionQueue
from repro.via.descriptor import Descriptor
from repro.via.fabric import Attempt, Packet, payload_checksum
from repro.via.tpt import TranslationProtectionTable
from repro.via.vi import VirtualInterface

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.sim.faults import FaultPlan
    from repro.via.fabric import Fabric


class VIANic:
    """One VIA network interface controller."""

    def __init__(self, name: str, kernel: "Kernel",
                 tpt_entries: int = 8192,
                 max_retransmits: int = MAX_RETRANSMITS) -> None:
        self.name = name
        self.kernel = kernel
        self.tpt = TranslationProtectionTable(
            tpt_entries, clock=kernel.clock, costs=kernel.costs,
            events=kernel.events)
        self.dma = DMAEngine(kernel.phys, kernel.clock, kernel.costs,
                             kernel.trace, name=f"{name}-dma",
                             events=kernel.events)
        self.vis: dict[int, VirtualInterface] = {}
        self.fabric: "Fabric | None" = None
        self.fault_plan: "FaultPlan | None" = None
        self.max_retransmits = max_retransmits
        self._next_vi_id = 1
        # counters
        self.sends_completed = 0
        self.recvs_completed = 0
        self.rdma_writes_completed = 0
        self.rdma_reads_completed = 0
        self.atomics_completed = 0    #: requester-side atomic completions
        self.atomics_served = 0       #: responder-side RMWs executed
        self.atomic_replays = 0       #: retransmits answered from cache
        self.atomic_rejects = 0       #: misaligned/unregistered/unpinned
        self.recv_drops = 0           #: arrivals with no posted descriptor
        self.protection_faults = 0
        self.retransmits = 0          #: reliable-mode resends
        self.duplicates_dropped = 0   #: retransmits deduplicated by seq
        self.dma_faults = 0           #: injected DMA failures absorbed
        self.resets = 0               #: NIC resets (fault injection)
        self.dma_suspensions = 0      #: transfers parked on an ODP fault
        #: the kernel agent's ODP fault handler, bound at agent
        #: construction: ``(handle, pages, token=) -> {page: frame}``
        self.fault_service = None
        self._next_suspend_token = 1
        #: happens-before tokens stamped on posted descriptors when the
        #: analysis stream is armed (DOORBELL release → COMPLETION
        #: acquire); 0 is never issued so tokens are always truthy
        self._next_hb_token = 1
        #: per-word serialization of the atomic unit: flat physical word
        #: address → simulated time the word is held until.  An atomic
        #: arriving inside another atomic's contention window stalls.
        self._atomic_busy: dict[int, int] = {}

    # ------------------------------------------------------------------ VIs

    def create_vi(self, owner_pid: int, prot_tag: int,
                  reliability: ReliabilityLevel =
                  ReliabilityLevel.RELIABLE_DELIVERY,
                  send_cq: CompletionQueue | None = None,
                  recv_cq: CompletionQueue | None = None
                  ) -> VirtualInterface:
        """Create a VI owned by ``owner_pid`` under ``prot_tag``."""
        vi = VirtualInterface(self._next_vi_id, owner_pid, prot_tag,
                              reliability=reliability)
        vi.send_cq = send_cq
        vi.recv_cq = recv_cq
        self._next_vi_id += 1
        self.vis[vi.vi_id] = vi
        return vi

    def vi(self, vi_id: int) -> VirtualInterface:
        """Look a VI up by id."""
        vi = self.vis.get(vi_id)
        if vi is None:
            raise ViaConnectionError(f"{self.name}: no VI {vi_id}")
        return vi

    def destroy_vi(self, vi_id: int) -> None:
        """Remove a VI (must be disconnected)."""
        vi = self.vi(vi_id)
        if vi.state == ViState.CONNECTED:
            raise ViaConnectionError(
                f"VI {vi_id} is still connected")
        del self.vis[vi_id]

    def teardown_vi(self, vi_id: int, reason: str = "teardown") -> int:
        """Forcibly remove a VI in *any* state (exit path / reaper).

        A connected peer transitions to ERROR and flushes its work
        queues with ``VIP_ERROR_CONN_LOST`` — the survivor learns of the
        loss instead of hanging.  The VI's own outstanding descriptors
        are flushed the same way, and any completions it had parked in
        shared CQs are drained (nobody may poll a dead VI's
        notifications).  Returns the number of flushed descriptors.
        """
        vi = self.vi(vi_id)
        flushed = vi.outstanding
        if vi.peer is not None and self.fabric is not None:
            self.fabric.disconnect(self, vi_id)
        vi.enter_error()
        for cq in (vi.send_cq, vi.recv_cq):
            if cq is not None:
                cq.drain_vi(vi_id)
        del self.vis[vi_id]
        self.kernel.trace.emit("vi_teardown", nic=self.name, vi=vi_id,
                               owner=vi.owner_pid, reason=reason,
                               flushed=flushed)
        return flushed

    # ------------------------------------------------------------- fault hooks

    def check_faults(self) -> None:
        """Fire any scheduled fault whose time has come (NIC reset)."""
        plan = self.fault_plan
        if plan is not None and plan.nic_reset_due(
                self.kernel.clock.now_ns, self.name):
            self.reset(reason="scheduled")

    def reset(self, reason: str = "fault") -> None:
        """Reset the NIC: every active VI loses its connection.

        Each VI transitions to ``ERROR`` and completes all outstanding
        descriptors with ``VIP_ERROR_CONN_LOST``; peers discover the
        loss on their next transmission (delivery to a reset VI returns
        connection-lost).  Host-side state — registrations and TPT
        entries — survives, as it does across a real adapter reset, but
        the volatile translation cache does **not**: it is on-adapter
        SRAM and is flushed wholesale.
        """
        self.resets += 1
        self.tpt.invalidate_translations()
        # the atomic unit's word-hold latches are on-adapter state too
        self._atomic_busy.clear()
        self.kernel.trace.emit("nic_reset", nic=self.name, reason=reason)
        for vi in self.vis.values():
            if vi.state != ViState.IDLE:
                vi.enter_error()

    # ----------------------------------------------------------- descriptor posting
    #
    # A post is a list of descriptors rung in with one doorbell; posting
    # a single descriptor is a list of one (see the user agent's
    # ``post_send``/``post_recv``).

    def _enqueue(self, vi: VirtualInterface, descs: "list[Descriptor]",
                 pid: int, work_queue, queue: str) -> None:
        """Charge a validated post, publish it, and append its
        descriptors, marked not-done, to ``work_queue``.

        Descriptor build is charged per entry, doorbell ring and
        descriptor fetch once per post — the amortization linked
        descriptor lists buy on real VIA hardware.  Publishing puts one
        DOORBELL per descriptor on the analysis stream, each carrying a
        fresh happens-before token the CQ's COMPLETION event will
        acquire when the completion is observed.
        """
        costs = self.kernel.costs
        clock = self.kernel.clock
        clock.charge(costs.descriptor_build_ns * len(descs), "via_cpu")
        clock.charge(costs.doorbell_ring_ns, "via_cpu")
        clock.charge(costs.descriptor_fetch_ns, "via_nic")
        now = clock.now_ns
        events = self.kernel.events
        if events.active:
            for desc in descs:
                desc.hb_token = self._next_hb_token
                self._next_hb_token += 1
                events.emit(DOORBELL, token=desc.hb_token, vi=vi.vi_id,
                            pid=pid, queue=queue)
        for desc in descs:
            desc.done = False
            desc.status = VIP_NOT_DONE
            desc.posted_at_ns = now
            work_queue.append(desc)
        obs = self.kernel.obs
        if obs.enabled:
            obs.metrics.gauge(f"via.nic.{queue}_queue_depth").set(
                len(work_queue))

    def post_recv_many(self, vi_id: int, descs: "list[Descriptor]",
                       pid: int) -> int:
        """Post receive descriptors with one doorbell ring (each must
        precede the send it is to receive).

        Admission is all-or-nothing: every descriptor is validated
        before any is queued, so a bad entry rejects the whole batch
        instead of leaving it half-posted.  Returns how many were
        posted.
        """
        descs = list(descs)
        if not descs:
            return 0
        self.check_faults()
        vi = self.vi(vi_id)
        for desc in descs:
            desc.validate()
            if desc.dtype != DescriptorType.RECV:
                raise DescriptorError(
                    f"cannot post a {desc.dtype.value} descriptor to a "
                    f"receive queue")
        vi.recv_doorbell.ring(pid)
        self._enqueue(vi, descs, pid, vi.recv_queue, "recv")
        return len(descs)

    def post_send_many(self, vi_id: int, descs: "list[Descriptor]",
                       pid: int) -> int:
        """Post send/RDMA/atomic descriptors and process them.

        Like :meth:`post_recv_many`: validation is all-or-nothing, the
        doorbell and descriptor fetch are charged once per post, and
        the send queue is drained with a single processing pass.
        Returns how many were posted.
        """
        descs = list(descs)
        if not descs:
            return 0
        self.check_faults()
        vi = self.vi(vi_id)
        for desc in descs:
            desc.validate()
            if desc.dtype == DescriptorType.RECV:
                raise DescriptorError(
                    "cannot post a recv descriptor to a send queue")
            if (desc.dtype in ATOMIC_TYPES
                    and vi.reliability == ReliabilityLevel.UNRELIABLE):
                raise DescriptorError(
                    "atomic verbs require a RELIABLE VI: sequence-number "
                    "dedup of retransmits is what makes them safe to "
                    "replay")
        vi.send_doorbell.ring(pid)
        vi.require_connected()
        self._enqueue(vi, descs, pid, vi.send_queue, "send")
        self._process_send_queue(vi)
        return len(descs)

    # ------------------------------------------------------------ observability

    def _observe_completion(self, desc: Descriptor, queue: str) -> None:
        """Record the doorbell→completion latency of a successfully
        completed descriptor (callers guard on ``obs.enabled``, so the
        disabled path does not even pay this call)."""
        obs = self.kernel.obs
        if desc.posted_at_ns is not None:
            # repro-lint: allow(obs-unguarded) — guarded at every caller
            obs.metrics.histogram(
                "via.nic.doorbell_to_completion_ns").observe(
                    self.kernel.clock.now_ns - desc.posted_at_ns)
        # repro-lint: allow(obs-unguarded) — guarded at every caller
        obs.metrics.counter(f"via.nic.completions.{queue}").inc()

    # --------------------------------------------------------------- send processing

    #: give up on a transfer that keeps faulting (pressure evicting the
    #: pages as fast as the fault service brings them in)
    ODP_FAULT_ROUNDS = 16

    def _tpt_translate(self, handle: int, va: int, length: int,
                       prot_tag: int, **rdma: bool
                       ) -> list[tuple[int, int]]:
        """``tpt.translate`` with the ODP suspend/fault/resume loop.

        A :class:`TranslationFault` (invalid entries on an ODP region)
        parks the transfer, posts a fault request to the kernel agent,
        and retries once the agent has patched the TPT.  Non-ODP regions
        never fault, so they take the plain one-call path.
        """
        for _ in range(self.ODP_FAULT_ROUNDS):
            try:
                return self.tpt.translate(handle, va, length, prot_tag,
                                          **rdma)
            except TranslationFault as fault:
                self._service_fault(fault)
        raise NotRegistered(
            f"handle {handle}: translation still faulting after "
            f"{self.ODP_FAULT_ROUNDS} fault-service rounds (thrashing)")

    def _service_fault(self, fault: TranslationFault) -> None:
        """Suspend the in-flight transfer, have the kernel agent fault
        the pages in, and resume.

        Failure funnels into :class:`NotRegistered` so every call site's
        existing error path completes the descriptor the same way it
        would for an unregistered buffer — except a kill at an ODP crash
        point, which must keep propagating after the engine is unparked.
        """
        kernel = self.kernel
        token = self._next_suspend_token
        self._next_suspend_token += 1
        self.dma_suspensions += 1
        kernel.clock.charge(kernel.costs.odp_suspend_resume_ns, "via_nic")
        if kernel.events.active:
            kernel.events.emit(DMA_SUSPEND, handle=fault.handle,
                               pages=fault.pages, token=token,
                               va=fault.va, length=fault.length,
                               actor="nic")
        kernel.trace.emit("odp_dma_suspend", nic=self.name,
                          handle=fault.handle, pages=len(fault.pages),
                          token=token)
        try:
            if self.fault_service is None:
                raise NotRegistered(
                    f"{self.name}: translation fault on handle "
                    f"{fault.handle} with no fault service bound")
            self.fault_service(fault.handle, fault.pages, token=token)
        except ProcessKilled:
            self._resume(fault.handle, token, ok=False)
            raise
        except (ViaError, KernelError) as exc:
            # Owner dead, registration gone, range unmapped mid-fault:
            # the transfer cannot make progress — unpark the engine and
            # complete the descriptor through the error path.
            self._resume(fault.handle, token, ok=False)
            raise NotRegistered(
                f"{self.name}: fault service failed for handle "
                f"{fault.handle}: {exc}") from exc
        self._resume(fault.handle, token, ok=True)

    def _resume(self, handle: int, token: int, ok: bool) -> None:
        kernel = self.kernel
        if kernel.events.active:
            kernel.events.emit(DMA_RESUME, handle=handle, token=token,
                               ok=ok, actor="nic")
        kernel.trace.emit("odp_dma_resume", nic=self.name, handle=handle,
                          token=token, ok=ok)

    def _translate_local(self, vi: VirtualInterface, desc: Descriptor
                         ) -> list[tuple[int, int]]:
        """Translate the descriptor's local segments under the VI's tag."""
        segments: list[tuple[int, int]] = []
        for seg in desc.segments:
            segments.extend(self._tpt_translate(
                seg.mem_handle, seg.va, seg.length, vi.prot_tag))
        return segments

    def _process_send_queue(self, vi: VirtualInterface) -> None:
        while vi.send_queue and vi.state == ViState.CONNECTED:
            desc = vi.send_queue.popleft()
            self._execute_send(vi, desc)

    # -- the reliability protocol (sender side) ------------------------------

    def _round_trip(self, vi: VirtualInterface, packet: Packet,
                    attempt: Callable[..., Attempt], **note: str
                    ) -> tuple[str, Any]:
        """Run one reliable exchange — a send, an RDMA read, or an
        atomic — retransmitting until it is acknowledged or the retry
        budget is spent.

        ``attempt`` is the fabric's one-wire-attempt method for the
        packet's kind.  Returns the responder's ``(status, value)``
        (``value`` is the read payload or the atomic's original word),
        or ``(VIP_ERROR_CONN_LOST, None)`` after giving up.  ``note``
        tags the retransmit trace events with the exchange's kind.
        Retrying is safe for every kind: the receiver dedups a replayed
        send by sequence number, a read is idempotent, and the responder
        answers a replayed atomic from its response cache.
        """
        clock = self.kernel.clock
        costs = self.kernel.costs
        trace = self.kernel.trace
        timeout_ns = costs.retransmit_timeout_ns
        for n in range(self.max_retransmits + 1):
            if n:
                self.retransmits += 1
                trace.emit("via_retransmit", nic=self.name, vi=vi.vi_id,
                           seq=packet.seq, attempt=n, **note)
            outcome = attempt(self, packet, vi.reliability)
            if outcome.kind == "delivered":
                return outcome.status, outcome.value
            if outcome.kind != "nack":
                # Dropped, or its ACK/response was lost: wait out the
                # retransmission timer, then back off exponentially
                # (capped).
                clock.charge(timeout_ns, "retransmit")
                trace.emit("via_retransmit_timeout", nic=self.name,
                           vi=vi.vi_id, seq=packet.seq,
                           waited_ns=timeout_ns, cause=outcome.kind)
                timeout_ns = min(int(timeout_ns * costs.retransmit_backoff),
                                 costs.retransmit_timeout_max_ns)
            # NACK (CRC failure): the receiver asked for an immediate
            # resend — no timer to wait for.
        trace.emit("via_conn_lost", nic=self.name, vi=vi.vi_id,
                   seq=packet.seq, retries=self.max_retransmits)
        return VIP_ERROR_CONN_LOST, None

    def _execute_send(self, vi: VirtualInterface, desc: Descriptor) -> None:
        assert self.fabric is not None, "NIC not attached to a fabric"
        assert vi.peer is not None
        dst_nic, dst_vi = vi.peer

        # Local translation + protection.
        try:
            local_segs = self._translate_local(vi, desc)
        except (ProtectionError, NotRegistered) as exc:
            self.protection_faults += 1
            self.kernel.trace.emit("via_send_error", nic=self.name,
                                   vi=vi.vi_id, status=exc.status)
            self._complete_send(vi, desc, exc.status, 0)
            return

        if desc.dtype == DescriptorType.RDMA_READ:
            self._execute_rdma_read(vi, desc, local_segs)
            return
        if desc.dtype in ATOMIC_TYPES:
            self._execute_atomic(vi, desc, local_segs)
            return

        try:
            payload = self.dma.read_gather(local_segs)
        except DMAFault:
            self.dma_faults += 1
            self.kernel.trace.emit("via_dma_fault", nic=self.name,
                                   vi=vi.vi_id, side="send")
            self._complete_send(vi, desc, VIP_ERROR_NIC, 0)
            return
        packet = Packet(
            kind=desc.dtype, src_nic=self.name, src_vi=vi.vi_id,
            dst_nic=dst_nic, dst_vi=dst_vi, payload=payload,
            immediate=desc.immediate_data,
            remote_handle=desc.remote_handle, remote_va=desc.remote_va)
        if vi.reliability == ReliabilityLevel.UNRELIABLE:
            # Fire-and-forget: the sender never learns of a loss.
            self.fabric.attempt_delivery(self, packet, vi.reliability)
            status = VIP_SUCCESS
        else:
            vi.tx_seq += 1
            packet.seq = vi.tx_seq
            packet.checksum = payload_checksum(payload)
            status, _ = self._round_trip(vi, packet,
                                         self.fabric.attempt_delivery)
        if not self._complete_send(vi, desc, status, len(payload)):
            return
        if desc.dtype == DescriptorType.SEND:
            self.sends_completed += 1
        else:
            self.rdma_writes_completed += 1

    def _complete_send(self, vi: VirtualInterface, desc: Descriptor,
                       status: str, nbytes: int) -> bool:
        """Complete a send-queue descriptor with ``status`` (a failure
        is already tallied and traced by the caller, and breaks a
        reliable connection).  Returns whether it succeeded."""
        if status != VIP_SUCCESS:
            desc.complete(status, 0)
            vi.complete_send(desc)
            if vi.reliability != ReliabilityLevel.UNRELIABLE:
                vi.enter_error()
            return False
        desc.complete(VIP_SUCCESS, nbytes)
        vi.complete_send(desc)
        if self.kernel.obs.enabled:
            self._observe_completion(desc, "send")
        return True

    def _execute_rdma_read(self, vi: VirtualInterface, desc: Descriptor,
                           local_segs: list[tuple[int, int]]) -> None:
        assert self.fabric is not None and vi.peer is not None
        dst_nic, dst_vi = vi.peer
        packet = Packet(
            kind=DescriptorType.RDMA_READ, src_nic=self.name,
            src_vi=vi.vi_id, dst_nic=dst_nic, dst_vi=dst_vi,
            remote_handle=desc.remote_handle, remote_va=desc.remote_va,
            read_length=desc.total_length)
        if vi.reliability == ReliabilityLevel.UNRELIABLE:
            # One attempt: nothing retransmits a lost read.
            attempt = self.fabric.attempt_rdma_read(self, packet,
                                                    vi.reliability)
            if attempt.kind == "delivered":
                status, payload = attempt.status, attempt.value
            else:
                status, payload = VIP_ERROR_CONN_LOST, b""
        else:
            status, payload = self._round_trip(
                vi, packet, self.fabric.attempt_rdma_read, rdma="read")
        if status != VIP_SUCCESS:
            self._complete_send(vi, desc, status, 0)
            return
        try:
            self.dma.write_scatter(
                _trim_segments(local_segs, len(payload)), payload)
        except DMAFault:
            self.dma_faults += 1
            self.kernel.trace.emit("via_dma_fault", nic=self.name,
                                   vi=vi.vi_id, side="send")
            self._complete_send(vi, desc, VIP_ERROR_NIC, 0)
            return
        self._complete_send(vi, desc, VIP_SUCCESS, len(payload))
        self.rdma_reads_completed += 1

    def _execute_atomic(self, vi: VirtualInterface, desc: Descriptor,
                        local_segs: list[tuple[int, int]]) -> None:
        """Run one remote atomic round trip and land the original value
        in the descriptor's single local segment."""
        assert self.fabric is not None and vi.peer is not None
        dst_nic, dst_vi = vi.peer
        packet = Packet(
            kind=desc.dtype, src_nic=self.name, src_vi=vi.vi_id,
            dst_nic=dst_nic, dst_vi=dst_vi,
            remote_handle=desc.remote_handle, remote_va=desc.remote_va,
            compare=desc.compare, swap=desc.swap, add=desc.add)
        # Atomics ride the reliable sequence space: the responder's
        # dedup cache is keyed by this seq, so a retransmit after a lost
        # response returns the cached original value, never a re-execute.
        vi.tx_seq += 1
        packet.seq = vi.tx_seq
        status, original = self._round_trip(
            vi, packet, self.fabric.attempt_atomic, atomic=packet.kind.value)
        if status != VIP_SUCCESS:
            self._complete_send(vi, desc, status, 0)
            return
        try:
            self.dma.write_scatter(
                local_segs, original.to_bytes(ATOMIC_OPERAND_BYTES,
                                              "little"))
        except DMAFault:
            self.dma_faults += 1
            self.kernel.trace.emit("via_dma_fault", nic=self.name,
                                   vi=vi.vi_id, side="send")
            self._complete_send(vi, desc, VIP_ERROR_NIC, 0)
            return
        desc.atomic_original_value = original
        self._complete_send(vi, desc, VIP_SUCCESS, ATOMIC_OPERAND_BYTES)
        self.atomics_completed += 1
        obs = self.kernel.obs
        if obs.enabled:
            obs.metrics.counter("via.atomic.completed").inc()

    # --------------------------------------------------------------- delivery side

    def _inbound_vi(self, packet: Packet) -> VirtualInterface | None:
        """Fire any due NIC fault, then return the connected VI an
        inbound packet is addressed to — None if it is gone, not
        connected, or connected to someone else."""
        self.check_faults()
        vi = self.vis.get(packet.dst_vi)
        if vi is None or vi.state != ViState.CONNECTED or \
                vi.peer != (packet.src_nic, packet.src_vi):
            return None
        return vi

    @staticmethod
    def _refuse(vi: VirtualInterface, reliability: ReliabilityLevel,
                status: str) -> str:
        """An inbound send or RDMA write failed on this side: an
        UNRELIABLE sender is told nothing (success), a reliable
        connection breaks and the sender learns ``status``."""
        if reliability == ReliabilityLevel.UNRELIABLE:
            return VIP_SUCCESS
        vi.enter_error()
        return status

    def deliver(self, packet: Packet, reliability: ReliabilityLevel) -> str:
        """Accept an inbound packet from the fabric; returns a status the
        fabric relays to the sender."""
        vi = self._inbound_vi(packet)
        if vi is None:
            return VIP_ERROR_CONN_LOST

        # Deduplicate retransmits on RELIABLE VIs: a sequence number at
        # or below the receive high-water mark was already processed
        # (its ACK was lost, or the fabric duplicated it) — re-ACK
        # without executing it again.
        if reliability != ReliabilityLevel.UNRELIABLE and packet.seq:
            if packet.seq <= vi.rx_seq:
                self.duplicates_dropped += 1
                self.kernel.trace.emit("via_duplicate", nic=self.name,
                                       vi=vi.vi_id, seq=packet.seq)
                return VIP_SUCCESS

        if packet.kind == DescriptorType.SEND:
            status = self._deliver_send(vi, packet, reliability)
        elif packet.kind == DescriptorType.RDMA_WRITE:
            status = self._deliver_rdma_write(vi, packet, reliability)
        else:
            raise ViaError(f"cannot deliver packet kind {packet.kind}")

        if (status == VIP_SUCCESS
                and reliability != ReliabilityLevel.UNRELIABLE
                and packet.seq):
            vi.rx_seq = packet.seq
        return status

    def _deliver_send(self, vi: VirtualInterface, packet: Packet,
                      reliability: ReliabilityLevel) -> str:
        if not vi.recv_queue:
            # "A receive descriptor ... has to be posted before the
            # sender's data arrives."  Unreliable: silent drop.
            # Reliable: the connection is broken.
            self.recv_drops += 1
            self.kernel.trace.emit("via_recv_drop", nic=self.name,
                                   vi=vi.vi_id)
            return self._refuse(vi, reliability, VIP_ERROR_CONN_LOST)
        desc = vi.recv_queue.popleft()
        if desc.total_length < len(packet.payload):
            desc.complete(VIP_DESCRIPTOR_ERROR, 0)
            vi.complete_recv(desc)
            return self._refuse(vi, reliability, VIP_DESCRIPTOR_ERROR)
        try:
            segs = self._translate_local(vi, desc)
        except (ProtectionError, NotRegistered) as exc:
            self.protection_faults += 1
            self.kernel.trace.emit("via_recv_error", nic=self.name,
                                   vi=vi.vi_id, status=exc.status)
            desc.complete(exc.status, 0)
            vi.complete_recv(desc)
            return self._refuse(vi, reliability, exc.status)
        try:
            self.dma.write_scatter(
                _trim_segments(segs, len(packet.payload)), packet.payload)
        except DMAFault:
            self.dma_faults += 1
            desc.complete(VIP_ERROR_NIC, 0)
            vi.complete_recv(desc)
            self.kernel.trace.emit("via_dma_fault", nic=self.name,
                                   vi=vi.vi_id, side="recv")
            return self._refuse(vi, reliability, VIP_ERROR_NIC)
        desc.received_immediate = packet.immediate
        desc.complete(VIP_SUCCESS, len(packet.payload))
        self.kernel.clock.charge(self.kernel.costs.completion_post_ns,
                                 "via_nic")
        vi.complete_recv(desc)
        if self.kernel.obs.enabled:
            self._observe_completion(desc, "recv")
        self.recvs_completed += 1
        return VIP_SUCCESS

    def _deliver_rdma_write(self, vi: VirtualInterface, packet: Packet,
                            reliability: ReliabilityLevel) -> str:
        assert packet.remote_handle is not None
        assert packet.remote_va is not None
        try:
            segs = self._tpt_translate(
                packet.remote_handle, packet.remote_va,
                len(packet.payload), vi.prot_tag, rdma_write=True)
        except (ProtectionError, NotRegistered) as exc:
            self.protection_faults += 1
            self.kernel.trace.emit("via_rdma_protfault", nic=self.name,
                                   vi=vi.vi_id, status=exc.status)
            return self._refuse(vi, reliability, exc.status)
        try:
            self.dma.write_scatter(segs, packet.payload)
        except DMAFault:
            self.dma_faults += 1
            self.kernel.trace.emit("via_dma_fault", nic=self.name,
                                   vi=vi.vi_id, side="rdma_write")
            return self._refuse(vi, reliability, VIP_ERROR_NIC)
        # Immediate data makes the RDMA write visible to the receiver by
        # consuming one receive descriptor (VIA spec §2.2.2).
        if packet.immediate is not None:
            if not vi.recv_queue:
                self.recv_drops += 1
                self.kernel.trace.emit("via_recv_drop", nic=self.name,
                                       vi=vi.vi_id)
                return self._refuse(vi, reliability, VIP_ERROR_CONN_LOST)
            desc = vi.recv_queue.popleft()
            desc.received_immediate = packet.immediate
            desc.complete(VIP_SUCCESS, 0)
            vi.complete_recv(desc)
        return VIP_SUCCESS

    def serve_rdma_read(self, packet: Packet,
                        reliability: ReliabilityLevel
                        ) -> tuple[str, bytes]:
        """Serve an inbound RDMA-read request: translate and fetch."""
        vi = self._inbound_vi(packet)
        if vi is None:
            return VIP_ERROR_CONN_LOST, b""
        assert packet.remote_handle is not None
        assert packet.remote_va is not None
        try:
            segs = self._tpt_translate(
                packet.remote_handle, packet.remote_va,
                packet.read_length, vi.prot_tag, rdma_read=True)
        except (ProtectionError, NotRegistered) as exc:
            self.protection_faults += 1
            self.kernel.trace.emit("via_rdma_protfault", nic=self.name,
                                   vi=vi.vi_id, status=exc.status)
            if reliability != ReliabilityLevel.UNRELIABLE:
                vi.enter_error()
            return exc.status, b""
        try:
            return VIP_SUCCESS, self.dma.read_gather(segs)
        except DMAFault:
            self.dma_faults += 1
            self.kernel.trace.emit("via_dma_fault", nic=self.name,
                                   vi=vi.vi_id, side="rdma_read")
            if reliability != ReliabilityLevel.UNRELIABLE:
                vi.enter_error()
            return VIP_ERROR_NIC, b""

    def serve_atomic(self, packet: Packet,
                     reliability: ReliabilityLevel) -> tuple[str, int]:
        """Serve an inbound atomic request; returns ``(status,
        original_value)``.

        The idempotency guard lives here: a sequence number already
        answered is served from the VI's bounded response cache without
        touching memory — the retransmit path may replay an atomic whose
        response was lost *after* the RMW executed, and re-executing it
        would double-apply a FETCH_ADD or mis-judge a CMPSWAP.
        """
        vi = self._inbound_vi(packet)
        if vi is None:
            return VIP_ERROR_CONN_LOST, 0
        if reliability != ReliabilityLevel.UNRELIABLE and packet.seq:
            cached = vi.atomic_responses.get(packet.seq)
            if cached is not None:
                self.duplicates_dropped += 1
                self.atomic_replays += 1
                self.kernel.trace.emit("via_atomic_replay", nic=self.name,
                                       vi=vi.vi_id, seq=packet.seq)
                return cached
        response = self._serve_atomic_fresh(vi, packet, reliability)
        if reliability != ReliabilityLevel.UNRELIABLE and packet.seq:
            cache = vi.atomic_responses
            cache[packet.seq] = response
            if len(cache) > ATOMIC_RESPONSE_CACHE:
                for seq in sorted(cache)[:len(cache)
                                         - ATOMIC_RESPONSE_CACHE]:
                    del cache[seq]
        return response

    def _atomic_word_resident(self, frame: int) -> bool:
        """Is ``frame`` held resident on someone's behalf?

        Pin-based backends (kiobuf, the paper's proposal) raise the
        frame's ``pin_count``; the mlock-style backends instead keep the
        page resident through a ``VM_LOCKED`` mapping, so the RMW unit
        accepts either.  A word whose pins were annulled *and* whose
        mapping lost ``VM_LOCKED`` (the §3.2 naive-munlock hazard) is
        refused.
        """
        page = self.kernel.pagemap.page(frame)
        if page.pin_count > 0:
            return True
        mapping = page.mapping
        if mapping is None:
            return False
        pid, vpn = mapping
        task = self.kernel.tasks_by_pid.get(pid)
        if task is None:
            return False
        vma = task.vmas.find(vpn)
        return vma is not None and bool(vma.flags & VM_LOCKED)

    def _serve_atomic_fresh(self, vi: VirtualInterface, packet: Packet,
                            reliability: ReliabilityLevel
                            ) -> tuple[str, int]:
        """Validate, serialize, and execute one not-yet-seen atomic."""
        assert packet.remote_handle is not None
        assert packet.remote_va is not None
        trace = self.kernel.trace
        obs = self.kernel.obs

        def reject(status: str, reason: str) -> tuple[str, int]:
            self.atomic_rejects += 1
            trace.emit("via_atomic_reject", nic=self.name, vi=vi.vi_id,
                       reason=reason, va=packet.remote_va, status=status)
            if reliability != ReliabilityLevel.UNRELIABLE:
                vi.enter_error()
            return status, 0

        if packet.remote_va % ATOMIC_OPERAND_BYTES:
            return reject(VIP_INVALID_PARAMETER, "misaligned")
        try:
            segs = self._tpt_translate(
                packet.remote_handle, packet.remote_va,
                ATOMIC_OPERAND_BYTES, vi.prot_tag, rdma_atomic=True)
        except (ProtectionError, NotRegistered) as exc:
            self.protection_faults += 1
            return reject(exc.status, "protection")
        addr = segs[0][0]
        # Residency check: unlike fire-and-forget DMA (which must stay
        # "unhelpful", per the paper), an atomic is a round-trip verb
        # served by the adapter's RMW unit, which refuses to operate on
        # a word whose frame is no longer held resident for DMA.
        frame, _offset = PhysicalMemory.split_phys(addr)
        if not self._atomic_word_resident(frame):
            return reject(VIP_INVALID_MEMORY, "unpinned")

        # Per-word serialization via the sim clock: if another atomic's
        # contention window on this word is still open, stall until it
        # closes.
        clock = self.kernel.clock
        now = clock.now_ns
        busy_until = self._atomic_busy.get(addr, 0)
        if busy_until > now:
            wait_ns = busy_until - now
            clock.charge(wait_ns, "atomic_wait")
            obs.inc("via.atomic.contended")
            if obs.enabled:
                obs.metrics.histogram("via.atomic.wait_ns").observe(
                    wait_ns)

        kind = packet.kind
        compare, swap, add = packet.compare, packet.swap, packet.add

        def rmw(old: int) -> int:
            if kind == DescriptorType.ATOMIC_CMPSWAP:
                assert compare is not None and swap is not None
                return swap if old == compare else old
            assert add is not None
            return old + add

        try:
            original = self.dma.atomic_rmw(addr, rmw)
        except DMAFault:
            self.dma_faults += 1
            trace.emit("via_dma_fault", nic=self.name, vi=vi.vi_id,
                       side="atomic")
            if reliability != ReliabilityLevel.UNRELIABLE:
                vi.enter_error()
            return VIP_ERROR_NIC, 0
        self._atomic_busy[addr] = (
            clock.now_ns + self.kernel.costs.atomic_contention_window_ns)
        self.atomics_served += 1
        if obs.enabled:
            obs.metrics.counter("via.atomic.served").inc()
            obs.metrics.counter(f"via.atomic.{kind.value}").inc()
        return VIP_SUCCESS, original


def _trim_segments(segments: list[tuple[int, int]],
                   nbytes: int) -> list[tuple[int, int]]:
    """Clip a segment list to its first ``nbytes`` bytes (payload shorter
    than the posted buffer)."""
    out: list[tuple[int, int]] = []
    remaining = nbytes
    for addr, length in segments:
        if remaining <= 0:
            break
        n = min(length, remaining)
        out.append((addr, n))
        remaining -= n
    if remaining > 0:
        raise DescriptorError(
            f"segments cover {nbytes - remaining} bytes, need {nbytes}")
    return out
