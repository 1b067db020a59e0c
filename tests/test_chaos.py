"""Chaos suite: seeded fault plans against the full VIA stack.

Every test here follows the same contract: under an adversarial but
*deterministic* fault plan, a RELIABLE VI either delivers each payload
byte-identical (recovered by retransmission/NACK/dedup) or completes
descriptors with an honest error status — never silent corruption, and
never a leaked pin once the dust settles.
"""

import numpy as np
import pytest

from repro.core.audit import (
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.errors import ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.msg.endpoint import make_pair
from repro.msg.protocols import EagerProtocol, RendezvousZeroCopyProtocol
from repro.sim.faults import FaultPlan
from repro.via.constants import (
    VIP_ERROR_CONN_LOST, VIP_ERROR_NIC, VIP_ERROR_RESOURCE, VIP_SUCCESS,
    ReliabilityLevel, ViState,
)
from repro.via.descriptor import Descriptor
from repro.via.machine import Cluster, Machine
from tests.pairs import connected_pair


def payload_bytes(rng, n: int) -> bytes:
    return bytes(rng.integers(0, 256, n, dtype=np.uint8))


def chaos_pair(plan=None, num_frames=2048, **kwargs):
    """A connected endpoint pair; the plan is armed *after* setup so
    faults hit the communication path, not pool construction."""
    cluster = Cluster(2, num_frames=num_frames)
    s, r = make_pair(cluster, **kwargs)
    if plan is not None:
        cluster.inject_faults(plan)
    return cluster, s, r


def alloc_buffers(s, r, nbytes: int):
    pages = nbytes // PAGE_SIZE + 2
    src = s.task.mmap(pages)
    s.task.touch_pages(src, pages)
    dst = r.task.mmap(pages)
    r.task.touch_pages(dst, pages)
    return src, dst


def run_audits(cluster):
    """The post-chaos oracle: kernel invariants hold, the TPT is not
    stale, and no frame holds a pin that live registrations do not
    explain."""
    for m in cluster.machines:
        audit_kernel_invariants(m.kernel)
        assert audit_tpt_consistency(m.agent) == []
        assert audit_pin_leaks(m.kernel, m.agent) == []


def post_recv_buffer(ua, vi, npages=2):
    va = ua.task.mmap(npages)
    reg = ua.register_mem(va, npages * PAGE_SIZE)
    desc = Descriptor.recv([ua.segment(reg)])
    ua.post_recv(vi, desc)
    return va, reg, desc


class TestReliableSurvivesLoss:
    """Acceptance: loss_rate ≥ 0.2 on a RELIABLE_DELIVERY VI, ≥ 64
    transfers, every payload byte-identical via retransmission."""

    def test_heavy_loss_every_payload_delivered(self):
        plan = FaultPlan(seed=1234, loss_rate=0.25)
        cluster, s, r = chaos_pair(plan)
        rng = np.random.default_rng(99)
        for i in range(64):
            data = payload_bytes(rng, 1024 + i)
            s.send_chunk(data)
            got, _ = r.recv_chunk()
            assert got == data, f"transfer {i} not byte-identical"

        fabric = cluster.fabric
        assert fabric.packets_dropped > 0
        assert plan.stats.drops > 0
        # the recovery machinery visibly did the work
        assert cluster.trace.count("via_retransmit") > 0
        assert cluster.trace.count("via_retransmit_timeout") > 0
        assert cluster[0].nic.retransmits > 0
        run_audits(cluster)

    def test_backoff_grows_under_repeated_loss(self):
        plan = FaultPlan(seed=1234, loss_rate=0.25)
        cluster, s, r = chaos_pair(plan)
        rng = np.random.default_rng(99)
        for i in range(64):
            data = payload_bytes(rng, 512)
            s.send_chunk(data)
            assert r.recv_chunk()[0] == data
        base = cluster[0].kernel.costs.retransmit_timeout_ns
        waits = [e["waited_ns"]
                 for e in cluster.trace.of_kind("via_retransmit_timeout")]
        assert waits and min(waits) == base
        # at least one packet lost twice in a row → doubled timeout
        assert max(waits) >= 2 * base
        cap = cluster[0].kernel.costs.retransmit_timeout_max_ns
        assert max(waits) <= cap

    def test_ack_loss_is_recovered_by_dedup(self):
        """Pure ACK loss: data always arrives, the lost ACK forces a
        retransmit, and the receiver's seq dedup keeps delivery
        exactly-once."""
        plan = FaultPlan(seed=8, loss_rate=0.3)
        cluster, s, r = chaos_pair(plan)
        rng = np.random.default_rng(8)
        n = 32
        for i in range(n):
            data = payload_bytes(rng, 256)
            s.send_chunk(data)
            assert r.recv_chunk()[0] == data
        # nothing extra queued: dedup ate every replayed delivery
        assert r.try_recv_chunk() is None
        if cluster.fabric.acks_dropped:
            assert r.machine.nic.name in [
                e["nic"] for e in cluster.trace.of_kind("via_duplicate")]


class TestDuplicationAndCorruption:
    def test_duplicates_are_deduplicated(self):
        plan = FaultPlan(seed=5, duplicate_rate=1.0)
        cluster, s, r = chaos_pair(plan)
        rng = np.random.default_rng(5)
        for i in range(8):
            data = payload_bytes(rng, 700)
            s.send_chunk(data)
            assert r.recv_chunk()[0] == data
        assert [e["nic"] for e in cluster.trace.of_kind("via_duplicate")
                ].count(r.machine.nic.name) >= 8
        assert cluster.trace.count("packet_duplicated") >= 8
        assert r.try_recv_chunk() is None
        run_audits(cluster)

    def test_corruption_is_nacked_and_resent(self):
        plan = FaultPlan(seed=6, corrupt_rate=0.4)
        cluster, s, r = chaos_pair(plan)
        rng = np.random.default_rng(6)
        for i in range(16):
            data = payload_bytes(rng, 900)
            s.send_chunk(data)
            assert r.recv_chunk()[0] == data, "corrupt payload delivered"
        assert cluster.fabric.packets_nacked > 0
        assert cluster.trace.count("packet_nack") > 0
        assert cluster.trace.count("via_retransmit") > 0
        run_audits(cluster)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_mixed_chaos_never_silently_corrupts(self, seed):
        """Property: under combined loss/duplication/corruption/delay,
        every transfer either arrives byte-identical or fails with an
        error status — and the post-mortem audits stay clean."""
        plan = FaultPlan(seed=seed, loss_rate=0.15, duplicate_rate=0.1,
                         corrupt_rate=0.1, delay_rate=0.05)
        cluster, s, r = chaos_pair(plan)
        rng = np.random.default_rng(seed)
        delivered = 0
        errored = False
        for i in range(32):
            data = payload_bytes(rng, int(rng.integers(1, 4097)))
            try:
                s.send_chunk(data)
                got, _ = r.recv_chunk()
            except ViaError as exc:
                # honest failure: the VI went to ERROR, nothing half-done
                assert exc.status == VIP_ERROR_CONN_LOST
                assert s.vi.state == ViState.ERROR \
                    or r.vi.state == ViState.ERROR
                errored = True
                break
            assert got == data, f"seed {seed}: silent corruption at {i}"
            delivered += 1
        assert errored or delivered == 32
        run_audits(cluster)

    def test_protocol_transfer_over_chaotic_fabric(self):
        plan = FaultPlan(seed=11, loss_rate=0.15, duplicate_rate=0.05,
                         corrupt_rate=0.05)
        cluster, s, r = chaos_pair(plan)
        nbytes = 6 * PAGE_SIZE + 123
        src, dst = alloc_buffers(s, r, nbytes)
        data = payload_bytes(np.random.default_rng(11), nbytes)
        s.task.write(src, data)
        res = EagerProtocol().transfer(s, r, src, dst, nbytes)
        assert res.ok and not res.corrupt
        assert r.task.read(dst, nbytes) == data
        assert cluster.fabric.packets_dropped > 0
        run_audits(cluster)


class TestNicReset:
    """Acceptance: an unrecoverable plan (NIC reset) moves the VI to
    ERROR and completes pending descriptors with VIP_ERROR_CONN_LOST."""

    def test_reset_errors_vi_and_flushes_descriptors(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        pending = [post_recv_buffer(ua_r, vi_r)[2] for _ in range(3)]
        plan = FaultPlan(nic_reset_at_ns=0,
                         nic_reset_name=cluster[1].nic.name)
        cluster.inject_faults(plan)

        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        desc = ua_s.send_bytes(vi_s, sreg, b"doomed")

        assert [e["nic"] for e in cluster.trace.of_kind("nic_reset")] \
            == [cluster[1].nic.name]
        assert vi_r.state == ViState.ERROR
        for d in pending:
            assert d.done
            assert d.status == VIP_ERROR_CONN_LOST
        # the sender discovers the loss on its next transmission
        assert desc.status == VIP_ERROR_CONN_LOST
        assert vi_s.state == ViState.ERROR
        # host-side locking state survives the adapter reset intact
        run_audits(cluster)

    def test_reset_mid_stream_surfaces_conn_lost(self):
        cluster, s, r = chaos_pair()
        plan = FaultPlan(nic_reset_at_ns=cluster.clock.now_ns + 1,
                         nic_reset_name=r.machine.nic.name)
        cluster.inject_faults(plan)
        with pytest.raises(ViaError) as exc:
            for i in range(64):
                s.send_chunk(b"x" * 64)
                r.recv_chunk()
        assert exc.value.status == VIP_ERROR_CONN_LOST
        assert r.vi.state == ViState.ERROR
        # every preposted bounce descriptor was flushed, none left limbo
        for slot in r.bounce_slots:
            assert slot.descriptor.done
            assert slot.descriptor.status == VIP_ERROR_CONN_LOST
        run_audits(cluster)


class TestDmaFaults:
    def test_send_side_dma_fault_completes_with_error(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        post_recv_buffer(ua_r, vi_r)
        cluster.inject_faults(FaultPlan(seed=7, dma_fail_rate=1.0))
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        desc = ua_s.send_bytes(vi_s, sreg, b"never leaves")
        assert desc.status == VIP_ERROR_NIC
        assert vi_s.state == ViState.ERROR
        assert cluster.trace.count("dma_fault_injected") >= 1
        assert [e["nic"] for e in cluster.trace.of_kind("via_dma_fault")] \
            == [ua_s.nic.name]
        run_audits(cluster)

    def test_recv_side_dma_fault_is_honest(self):
        """A fault on the receiver's scatter DMA must error both sides —
        the receiver must never complete VIP_SUCCESS over garbage."""
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        _, _, rdesc = post_recv_buffer(ua_r, vi_r)
        # arm only the receiving machine's engines
        cluster[1].inject_faults(FaultPlan(seed=7, dma_fail_rate=1.0))
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        desc = ua_s.send_bytes(vi_s, sreg, b"payload")
        assert rdesc.status == VIP_ERROR_NIC
        assert desc.status == VIP_ERROR_NIC
        assert vi_s.state == ViState.ERROR
        assert vi_r.state == ViState.ERROR
        run_audits(cluster)


class TestRegistrationPressure:
    def test_zerocopy_degrades_to_copy_when_registration_fails(self):
        cluster, s, r = chaos_pair()
        nbytes = 8 * PAGE_SIZE
        src, dst = alloc_buffers(s, r, nbytes)
        data = payload_bytes(np.random.default_rng(13), nbytes)
        s.task.write(src, data)
        cluster.inject_faults(FaultPlan(registration_failures=3))

        res = RendezvousZeroCopyProtocol(use_cache=True).transfer(
            s, r, src, dst, nbytes)
        assert res.ok and not res.corrupt
        assert res.degraded
        assert res.registration_retries > 0
        assert r.task.read(dst, nbytes) == data
        assert cluster.trace.count("fault_registration") == 3
        assert cluster.trace.count("regcache_retry") >= 3
        assert cluster.trace.count("protocol_fallback") == 1
        run_audits(cluster)

    def test_transient_registration_failure_is_retried_away(self):
        """One injected failure is absorbed by the cache's bounded
        retry: the transfer stays zero-copy."""
        cluster, s, r = chaos_pair()
        nbytes = 4 * PAGE_SIZE
        src, dst = alloc_buffers(s, r, nbytes)
        data = payload_bytes(np.random.default_rng(14), nbytes)
        s.task.write(src, data)
        cluster.inject_faults(FaultPlan(registration_failures=1))

        res = RendezvousZeroCopyProtocol(use_cache=True).transfer(
            s, r, src, dst, nbytes)
        assert res.ok and not res.degraded
        assert res.registration_retries == 1
        assert r.task.read(dst, nbytes) == data
        run_audits(cluster)

    def test_pin_failures_surface_as_resource_errors(self):
        m = Machine()
        t = m.spawn("pinner")
        ua = m.user_agent(t)
        va = t.mmap(2)
        t.touch_pages(va, 2)
        m.inject_faults(FaultPlan(pin_failures=2))
        for _ in range(2):
            with pytest.raises(ViaError) as exc:
                ua.register_mem(va, PAGE_SIZE)
            assert exc.value.status == VIP_ERROR_RESOURCE
        # budget exhausted: the very same call now succeeds
        reg = ua.register_mem(va, PAGE_SIZE)
        assert reg.handle
        assert m.kernel.trace.count("fault_pin") == 2
        audit_kernel_invariants(m.kernel)
        assert audit_pin_leaks(m.kernel, m.agent) == []


class TestPinLeakAudit:
    def test_clean_machine_has_no_leaks(self):
        cluster, s, r = chaos_pair()
        run_audits(cluster)

    def test_synthetic_leak_is_detected(self):
        """The audit is a real oracle: a pin not backed by a live
        registration is flagged."""
        m = Machine()
        t = m.spawn("leaker")
        va = t.mmap(1)
        t.touch_pages(va, 1)
        pte = t.page_table.lookup(va // PAGE_SIZE)
        m.kernel.pagemap.table.incr_pin(pte.frame)   # orphan pin, no reg
        leaks = audit_pin_leaks(m.kernel, m.agent)
        assert len(leaks) == 1
        assert leaks[0].frame == pte.frame
        assert leaks[0].pin_count == 1
        assert leaks[0].expected == 0
