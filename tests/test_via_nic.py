"""End-to-end NIC tests: send/receive, RDMA, protection, reliability."""

import pytest

from repro.errors import (
    ViaConnectionError, DescriptorError, QueueEmpty,
)
from repro.hw.physmem import PAGE_SIZE
from repro.sim.faults import FaultPlan
from repro.via.constants import (
    VIP_ERROR_CONN_LOST, VIP_ERROR_NIC, VIP_PROTECTION_ERROR, VIP_SUCCESS,
    ReliabilityLevel, ViState,
)
from repro.via.descriptor import DataSegment, Descriptor
from tests.pairs import connected_pair


@pytest.fixture
def pair():
    return connected_pair("kiobuf")


def post_recv_buffer(ua, vi, npages=2):
    """Map + register + post a receive buffer; returns (va, registration,
    descriptor)."""
    va = ua.task.mmap(npages)
    reg = ua.register_mem(va, npages * PAGE_SIZE)
    desc = Descriptor.recv([ua.segment(reg)])
    ua.post_recv(vi, desc)
    return va, reg, desc


class TestSendReceive:
    def test_roundtrip(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        _, _, rdesc = post_recv_buffer(ua_r, vi_r)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        sdesc = ua_s.send_bytes(vi_s, sreg, b"payload-123")
        assert sdesc.status == VIP_SUCCESS
        got = ua_r.recv_done(vi_r)
        assert got is rdesc
        assert got.status == VIP_SUCCESS
        assert got.length_transferred == 11
        assert ua_r.recv_bytes(vi_r, got) == b"payload-123"

    def test_multiple_messages_in_order(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        descs = [post_recv_buffer(ua_r, vi_r)[2] for _ in range(3)]
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        for i in range(3):
            ua_s.send_bytes(vi_s, sreg, f"msg{i}".encode())
        for i in range(3):
            got = ua_r.recv_done(vi_r)
            assert got is descs[i]
            assert ua_r.recv_bytes(vi_r, got) == f"msg{i}".encode()

    def test_immediate_data_travels(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        post_recv_buffer(ua_r, vi_r)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        desc = Descriptor.send([ua_s.segment(sreg, sva, 4)],
                               immediate=b"TAG!")
        ua_s.task.write(sva, b"body")
        ua_s.post_send(vi_s, desc)
        got = ua_r.recv_done(vi_r)
        assert got.received_immediate == b"TAG!"

    def test_send_counters(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        post_recv_buffer(ua_r, vi_r)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        ua_s.send_bytes(vi_s, sreg, b"x")
        assert ua_s.nic.sends_completed == 1
        assert ua_r.nic.recvs_completed == 1

    def test_send_without_recv_breaks_reliable_connection(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        desc = ua_s.send_bytes(vi_s, sreg, b"nobody home")
        assert desc.status == VIP_ERROR_CONN_LOST
        assert vi_s.state == ViState.ERROR
        assert vi_r.state == ViState.ERROR
        assert [e["nic"] for e in cluster.trace.of_kind("via_recv_drop")] \
            == [ua_r.nic.name]

    def test_send_without_recv_dropped_silently_unreliable(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair(
            "kiobuf", reliability=ReliabilityLevel.UNRELIABLE)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        desc = ua_s.send_bytes(vi_s, sreg, b"gone")
        assert desc.status == VIP_SUCCESS     # fire-and-forget
        assert vi_s.state == ViState.CONNECTED
        assert [e["nic"] for e in cluster.trace.of_kind("via_recv_drop")] \
            == [ua_r.nic.name]

    def test_undersized_recv_buffer_is_descriptor_error(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        rva = ua_r.task.mmap(1)
        rreg = ua_r.register_mem(rva, PAGE_SIZE)
        rdesc = Descriptor.recv([DataSegment(rreg.handle, rva, 4)])
        ua_r.post_recv(vi_r, rdesc)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        ua_s.send_bytes(vi_s, sreg, b"way too long")
        got = ua_r.recv_done(vi_r)
        assert got.status == "VIP_DESCRIPTOR_ERROR"
        assert vi_r.state == ViState.ERROR


class TestRDMA:
    def _rdma_setup(self, pair, write_enable=True, read_enable=True):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        rva = ua_r.task.mmap(2)
        ua_r.task.touch_pages(rva, 2)
        rreg = ua_r.register_mem(rva, 2 * PAGE_SIZE,
                                 rdma_write=write_enable,
                                 rdma_read=read_enable)
        lva = ua_s.task.mmap(2)
        lreg = ua_s.register_mem(lva, 2 * PAGE_SIZE)
        return cluster, ua_s, ua_r, vi_s, vi_r, rva, rreg, lva, lreg

    def test_rdma_write(self, pair):
        (cluster, ua_s, ua_r, vi_s, vi_r,
         rva, rreg, lva, lreg) = self._rdma_setup(pair)
        ua_s.task.write(lva, b"one-sided!")
        desc = Descriptor.rdma_write(
            [DataSegment(lreg.handle, lva, 10)],
            remote_handle=rreg.handle, remote_va=rva + 100)
        ua_s.post_send(vi_s, desc)
        assert desc.status == VIP_SUCCESS
        assert ua_r.task.read(rva + 100, 10) == b"one-sided!"
        assert ua_s.nic.rdma_writes_completed == 1

    def test_rdma_write_with_immediate_consumes_recv(self, pair):
        (cluster, ua_s, ua_r, vi_s, vi_r,
         rva, rreg, lva, lreg) = self._rdma_setup(pair)
        _, _, rdesc = post_recv_buffer(ua_r, vi_r)
        desc = Descriptor.rdma_write(
            [DataSegment(lreg.handle, lva, 4)],
            remote_handle=rreg.handle, remote_va=rva, immediate=b"done")
        ua_s.post_send(vi_s, desc)
        got = ua_r.recv_done(vi_r)
        assert got is rdesc
        assert got.received_immediate == b"done"

    def test_rdma_read(self, pair):
        (cluster, ua_s, ua_r, vi_s, vi_r,
         rva, rreg, lva, lreg) = self._rdma_setup(pair)
        ua_r.task.write(rva + 10, b"remote data")
        desc = Descriptor.rdma_read(
            [DataSegment(lreg.handle, lva, 11)],
            remote_handle=rreg.handle, remote_va=rva + 10)
        ua_s.post_send(vi_s, desc)
        assert desc.status == VIP_SUCCESS
        assert ua_s.task.read(lva, 11) == b"remote data"
        assert ua_s.nic.rdma_reads_completed == 1

    def test_rdma_write_without_enable_is_protection_error(self, pair):
        (cluster, ua_s, ua_r, vi_s, vi_r,
         rva, rreg, lva, lreg) = self._rdma_setup(pair, write_enable=False)
        before = ua_r.task.read(rva, 4)
        desc = Descriptor.rdma_write(
            [DataSegment(lreg.handle, lva, 4)],
            remote_handle=rreg.handle, remote_va=rva)
        ua_s.post_send(vi_s, desc)
        assert desc.status == VIP_PROTECTION_ERROR
        assert vi_s.state == ViState.ERROR
        assert ua_r.task.read(rva, 4) == before   # no data transferred
        assert [e["nic"] for e in
                cluster.trace.of_kind("via_rdma_protfault")] == [ua_r.nic.name]

    def test_rdma_read_without_enable_is_protection_error(self, pair):
        (cluster, ua_s, ua_r, vi_s, vi_r,
         rva, rreg, lva, lreg) = self._rdma_setup(pair, read_enable=False)
        desc = Descriptor.rdma_read(
            [DataSegment(lreg.handle, lva, 4)],
            remote_handle=rreg.handle, remote_va=rva)
        ua_s.post_send(vi_s, desc)
        assert desc.status == VIP_PROTECTION_ERROR

    def test_rdma_to_foreign_region_is_protection_error(self, pair):
        """A VI cannot touch a region registered by a *different* process
        (different protection tag) — Fig. 3's 'neither A is able to
        access wrong memory locations'."""
        (cluster, ua_s, ua_r, vi_s, vi_r,
         rva, rreg, lva, lreg) = self._rdma_setup(pair)
        intruder = cluster[1].spawn("intruder")
        ua_i = cluster[1].user_agent(intruder)
        iva = intruder.mmap(1)
        ireg = ua_i.register_mem(iva, PAGE_SIZE, rdma_write=True)
        desc = Descriptor.rdma_write(
            [DataSegment(lreg.handle, lva, 4)],
            remote_handle=ireg.handle, remote_va=iva)
        ua_s.post_send(vi_s, desc)
        assert desc.status == VIP_PROTECTION_ERROR


class TestLocalProtection:
    def test_send_from_foreign_registration_fails(self, pair):
        """A process cannot send out of another process's registered
        memory: the segment's handle carries the wrong tag."""
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        other = cluster[0].spawn("other")
        ua_o = cluster[0].user_agent(other)
        ova = other.mmap(1)
        oreg = ua_o.register_mem(ova, PAGE_SIZE)
        post_recv_buffer(ua_r, vi_r)
        desc = Descriptor.send([DataSegment(oreg.handle, ova, 4)])
        ua_s.post_send(vi_s, desc)
        assert desc.status == VIP_PROTECTION_ERROR
        assert vi_s.state == ViState.ERROR

    def test_recv_into_foreign_registration_fails(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        other = cluster[1].spawn("other")
        ua_o = cluster[1].user_agent(other)
        ova = other.mmap(1)
        oreg = ua_o.register_mem(ova, PAGE_SIZE)
        bad = Descriptor.recv([DataSegment(oreg.handle, ova, PAGE_SIZE)])
        ua_r.post_recv(vi_r, bad)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        ua_s.send_bytes(vi_s, sreg, b"x")
        got = ua_r.recv_done(vi_r)
        assert got.status == VIP_PROTECTION_ERROR


class TestPostingRules:
    def test_wrong_queue_rejected(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        with pytest.raises(DescriptorError):
            ua_s.post_send(vi_s, Descriptor.recv([]))
        with pytest.raises(DescriptorError):
            ua_r.post_recv(vi_r, Descriptor.send([]))

    def test_send_on_unconnected_vi_rejected(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        lone = ua_s.create_vi()
        with pytest.raises(ViaConnectionError):
            ua_s.post_send(lone, Descriptor.send([]))

    def test_recv_can_be_posted_while_idle(self, pair):
        """Pre-posting receives before the connection exists is legal."""
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        lone = ua_r.create_vi()
        va = ua_r.task.mmap(1)
        reg = ua_r.register_mem(va, PAGE_SIZE)
        ua_r.post_recv(lone, Descriptor.recv([ua_r.segment(reg)]))
        assert len(lone.recv_queue) == 1

    def test_done_polls_raise_when_empty(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        with pytest.raises(QueueEmpty):
            ua_s.send_done(vi_s)
        with pytest.raises(QueueEmpty):
            ua_r.recv_done(vi_r)


class TestConnectionManagement:
    def test_connect_requires_idle(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        extra_s = ua_s.create_vi()
        with pytest.raises(ViaConnectionError):
            cluster.fabric.connect(cluster[0].nic, vi_s.vi_id,
                                   cluster[1].nic, vi_r.vi_id)
        del extra_s

    def test_reliability_must_match(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        a = ua_s.create_vi(reliability=ReliabilityLevel.UNRELIABLE)
        b = ua_r.create_vi(reliability=ReliabilityLevel.RELIABLE_DELIVERY)
        with pytest.raises(ViaConnectionError):
            cluster.fabric.connect(cluster[0].nic, a.vi_id,
                                   cluster[1].nic, b.vi_id)

    def test_disconnect_peer_goes_to_error(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        cluster.fabric.disconnect(cluster[0].nic, vi_s.vi_id)
        assert vi_s.state == ViState.IDLE
        assert vi_r.state == ViState.ERROR

    def test_loopback_connection(self):
        from repro.via.machine import Machine
        m = Machine()
        t1 = m.spawn("a")
        t2 = m.spawn("b")
        ua1, ua2 = m.user_agent(t1), m.user_agent(t2)
        v1, v2 = ua1.create_vi(), ua2.create_vi()
        m.connect_loopback(v1, v2)
        rva = t2.mmap(1)
        rreg = ua2.register_mem(rva, PAGE_SIZE)
        ua2.post_recv(v2, Descriptor.recv([ua2.segment(rreg)]))
        sva = t1.mmap(1)
        sreg = ua1.register_mem(sva, PAGE_SIZE)
        d = ua1.send_bytes(v1, sreg, b"loopback")
        assert d.status == VIP_SUCCESS
        assert ua2.recv_bytes(v2, ua2.recv_done(v2)) == b"loopback"


class TestPacketLoss:
    def test_unreliable_vi_drops_packets(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair(
            "kiobuf", reliability=ReliabilityLevel.UNRELIABLE)
        # drop everything
        cluster.inject_faults(FaultPlan(seed=0, loss_rate=1.0))
        post_recv_buffer(ua_r, vi_r)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        desc = ua_s.send_bytes(vi_s, sreg, b"lost")
        assert desc.status == VIP_SUCCESS   # sender cannot tell
        assert cluster.fabric.packets_dropped == 1
        with pytest.raises(QueueEmpty):
            ua_r.recv_done(vi_r)


class TestTranslationCacheLifecycle:
    """The NIC's translation cache must be provably invalidated on
    deregistration and flushed wholesale on a NIC reset — a stale
    cached translation is exactly the DMA-to-freed-frame failure the
    paper's locking mechanism exists to prevent."""

    def warm(self, pair, payloads=2):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        for _ in range(payloads):
            post_recv_buffer(ua_r, vi_r)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        for _ in range(payloads):
            assert ua_s.send_bytes(vi_s, sreg, b"warm").status \
                == VIP_SUCCESS
        return sreg

    def test_deregister_drops_cached_translations(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        sreg = self.warm(pair)
        tpt = ua_s.nic.tpt
        assert len(tpt._xcache) > 0
        before = len(tpt._xcache)
        ua_s.deregister_mem(sreg)
        assert tpt.cache_invalidations >= 1
        assert len(tpt._xcache) < before
        # nothing cached refers to the dead handle any more
        assert all(key[0] != sreg.handle for key in tpt._xcache)

    def test_nic_reset_flushes_translation_cache(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        self.warm(pair)
        tpt = ua_s.nic.tpt
        assert len(tpt._xcache) > 0
        ua_s.nic.reset()
        assert len(tpt._xcache) == 0
        # registrations themselves survive the reset (host-side state)
        assert tpt.entries_used > 0


class TestReliableRoundTrip:
    """Sends, RDMA reads and atomics share one retransmission loop: on
    a dead wire each retries the same budget on the same backoff
    schedule, then completes ``VIP_ERROR_CONN_LOST`` and breaks the
    connection."""

    @staticmethod
    def post_over_dead_wire(kind):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        rva = ua_r.task.mmap(1)
        ua_r.task.touch_pages(rva, 1)
        rreg = ua_r.register_mem(rva, PAGE_SIZE, rdma_read=True,
                                 rdma_atomic=True)
        lva = ua_s.task.mmap(1)
        lreg = ua_s.register_mem(lva, PAGE_SIZE)
        local = [DataSegment(lreg.handle, lva, 8)]
        desc = {
            "send": lambda: Descriptor.send(local),
            "rdma_read": lambda: Descriptor.rdma_read(local, rreg.handle,
                                                      rva),
            "atomic": lambda: Descriptor.atomic_fetchadd(
                local, rreg.handle, rva, 1),
        }[kind]()
        cluster.inject_faults(FaultPlan(seed=0, loss_rate=1.0))
        ua_s.post_send(vi_s, desc)
        return cluster, ua_s.nic, vi_s, desc

    @pytest.mark.parametrize("kind, note", [
        ("send", {}),
        ("rdma_read", {"rdma": "read"}),
        ("atomic", {"atomic": "atomic_fetchadd"}),
    ])
    def test_budget_backoff_and_conn_lost(self, kind, note):
        cluster, nic, vi_s, desc = self.post_over_dead_wire(kind)
        assert desc.status == VIP_ERROR_CONN_LOST
        assert vi_s.state == ViState.ERROR
        assert nic.retransmits == nic.max_retransmits
        retries = cluster.trace.of_kind("via_retransmit")
        assert [e["attempt"] for e in retries] == list(
            range(1, nic.max_retransmits + 1))
        for event in retries:
            for key, value in note.items():
                assert event[key] == value
        assert cluster.trace.count("via_conn_lost") == 1
        # Every attempt timed out, on the capped exponential schedule.
        costs = nic.kernel.costs
        timeout, expected = costs.retransmit_timeout_ns, 0
        for _ in range(nic.max_retransmits + 1):
            expected += timeout
            timeout = min(int(timeout * costs.retransmit_backoff),
                          costs.retransmit_timeout_max_ns)
        assert cluster.clock.category_ns("retransmit") == expected


class _FailNextDMA:
    """A fault plan whose next DMA fails, and only that one."""

    def __init__(self):
        self.armed = True

    def should_fail_dma(self):
        armed, self.armed = self.armed, False
        return armed


class TestLocalFailureCompletion:
    """A send whose local translation or local DMA fails completes in
    error on the send CQ, in post order, leaves one trace record of the
    fault, and breaks a reliable connection (the rest of the batch is
    flushed ``VIP_ERROR_CONN_LOST``) but not an unreliable one."""

    @staticmethod
    def post_failing_batch(fault, reliability):
        cluster, ua_s, ua_r, _, _ = connected_pair(
            "kiobuf", reliability=reliability)
        cq = ua_s.create_cq()
        vi_s = ua_s.create_vi(reliability=reliability, send_cq=cq)
        vi_r = ua_r.create_vi(reliability=reliability)
        cluster.connect(vi_s, cluster[0], vi_r, cluster[1])
        for _ in range(2):
            post_recv_buffer(ua_r, vi_r, npages=1)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        if fault == "protection":
            other = cluster[0].spawn("other")
            ova = other.mmap(1)
            oreg = cluster[0].user_agent(other).register_mem(ova, PAGE_SIZE)
            bad = Descriptor.send([DataSegment(oreg.handle, ova, 4)])
        else:
            bad = Descriptor.send([DataSegment(sreg.handle, sva, 4)])
            ua_s.nic.dma.fault_plan = _FailNextDMA()
        goods = [Descriptor.send([DataSegment(sreg.handle, sva, 4)])
                 for _ in range(2)]
        mark = len(cluster.trace)
        ua_s.nic.post_send_many(vi_s.vi_id, [bad] + goods, ua_s.task.pid)
        records = [(e.ts_ns, e.kind, e.detail)
                   for e in list(cluster.trace)[mark:]]
        completed = [c.descriptor for c in cq.drain_batch()]
        return cluster, vi_s, bad, goods, completed, records

    @pytest.mark.parametrize("fault, status, expected", [
        ("protection", VIP_PROTECTION_ERROR,
         [("via_send_error", {"status": VIP_PROTECTION_ERROR})]),
        ("dma", VIP_ERROR_NIC,
         [("dma_fault_injected", {"engine": "m0.nic0-dma",
                                  "op": "read_gather", "length": 4}),
          ("via_dma_fault", {"side": "send"})]),
    ])
    def test_reliable_failure_breaks_connection(self, fault, status,
                                                expected):
        cluster, vi_s, bad, goods, completed, records = \
            self.post_failing_batch(fault,
                                    ReliabilityLevel.RELIABLE_DELIVERY)
        assert bad.status == status
        assert [d.status for d in goods] == [VIP_ERROR_CONN_LOST] * 2
        assert vi_s.state == ViState.ERROR
        assert completed == [bad] + goods
        assert [kind for _, kind, _ in records] == \
            [kind for kind, _ in expected]
        now = cluster.clock.now_ns
        for (ts, kind, detail), (_, fields) in zip(records, expected):
            assert ts == now
            if kind != "dma_fault_injected":
                assert detail == {"nic": "m0.nic0", "vi": vi_s.vi_id,
                                  **fields}
            else:
                assert {k: detail[k] for k in fields} == fields

    @pytest.mark.parametrize("fault", ["protection", "dma"])
    def test_unreliable_failure_keeps_connection(self, fault):
        _, _, bad_r, _, _, reliable = self.post_failing_batch(
            fault, ReliabilityLevel.RELIABLE_DELIVERY)
        _, vi_s, bad, goods, completed, records = self.post_failing_batch(
            fault, ReliabilityLevel.UNRELIABLE)
        assert bad.status == bad_r.status
        assert [d.status for d in goods] == [VIP_SUCCESS] * 2
        assert vi_s.state == ViState.CONNECTED
        assert completed == [bad] + goods
        # Same fault records at the same instant; the two good sends
        # follow as one DMA read and one remote DMA write each.
        assert records[:len(reliable)] == reliable
        assert [kind for _, kind, _ in records[len(reliable):]] == \
            ["dma_read", "dma_write"] * 2
        assert records[len(reliable)][0] > reliable[-1][0]
