"""Tests for paths not exercised elsewhere: CQ-driven completion,
unreliable-mode protection faults, stale-delivery rejection, cap-dance-
free mlock backend, pressure helper, and segment trimming errors."""

import pytest

from repro.errors import DescriptorError, QueueEmpty
from repro.hw.physmem import PAGE_SIZE
from repro.via.constants import (
    VIP_ERROR_CONN_LOST, VIP_SUCCESS,
    DescriptorType, ReliabilityLevel, ViState,
)
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.fabric import Packet
from repro.via.machine import Machine
from repro.via.nic import _trim_segments
from tests.pairs import connected_pair


class TestCompletionQueues:
    def test_cq_driven_receive(self):
        """A VI with an attached CQ routes completions there, and
        draining the CQ pops them."""
        cluster, ua_s, ua_r, _, _ = connected_pair("kiobuf")
        cq = ua_r.create_cq()
        vi_s2 = ua_s.create_vi()
        vi_r2 = ua_r.create_vi(recv_cq=cq)
        cluster.fabric.connect(cluster[0].nic, vi_s2.vi_id,
                               cluster[1].nic, vi_r2.vi_id)
        rva = ua_r.task.mmap(1)
        rreg = ua_r.register_mem(rva, PAGE_SIZE)
        ua_r.post_recv(vi_r2, Descriptor.recv([ua_r.segment(rreg)]))
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        ua_s.send_bytes(vi_s2, sreg, b"to the cq")
        [completion] = cq.drain_batch(1)
        assert completion.vi_id == vi_r2.vi_id
        assert completion.queue == "recv"
        assert completion.descriptor.status == VIP_SUCCESS
        assert cq.drain_batch() == []
        # the per-VI done list stayed empty
        with pytest.raises(QueueEmpty):
            ua_r.recv_done(vi_r2)


class TestUnreliableErrorHandling:
    def test_protection_fault_does_not_break_unreliable_vi(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair(
            "kiobuf", reliability=ReliabilityLevel.UNRELIABLE)
        # Send referencing a bogus handle: local translation fails.
        desc = Descriptor.send([DataSegment(99999, 0, 4)])
        ua_s.post_send(vi_s, desc)
        assert desc.status == "VIP_INVALID_MEMORY"
        assert vi_s.state == ViState.CONNECTED    # still usable

    def test_rdma_protfault_silent_for_unreliable(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair(
            "kiobuf", reliability=ReliabilityLevel.UNRELIABLE)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        rva = ua_r.task.mmap(1)
        rreg = ua_r.register_mem(rva, PAGE_SIZE)   # rdma NOT enabled
        desc = Descriptor.rdma_write(
            [DataSegment(sreg.handle, sva, 4)],
            remote_handle=rreg.handle, remote_va=rva)
        ua_s.post_send(vi_s, desc)
        # Fire-and-forget: the sender sees success, the write was
        # dropped at the target, connections stay up.
        assert desc.status == VIP_SUCCESS
        assert vi_r.state == ViState.CONNECTED
        assert [e["nic"] for e in
                cluster.trace.of_kind("via_rdma_protfault")] == [ua_r.nic.name]


class TestStaleDelivery:
    def test_packet_for_unknown_vi_rejected(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        pkt = Packet(kind=DescriptorType.SEND,
                     src_nic=cluster[0].nic.name, src_vi=vi_s.vi_id,
                     dst_nic=cluster[1].nic.name, dst_vi=999,
                     payload=b"x")
        status = cluster[1].nic.deliver(
            pkt, ReliabilityLevel.RELIABLE_DELIVERY)
        assert status == VIP_ERROR_CONN_LOST

    def test_packet_with_wrong_peer_rejected(self):
        """A packet claiming the wrong source VI (stale/forged route)
        is refused — the check backing VI point-to-point isolation."""
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        pkt = Packet(kind=DescriptorType.SEND,
                     src_nic=cluster[0].nic.name, src_vi=vi_s.vi_id + 7,
                     dst_nic=cluster[1].nic.name, dst_vi=vi_r.vi_id,
                     payload=b"x")
        status = cluster[1].nic.deliver(
            pkt, ReliabilityLevel.RELIABLE_DELIVERY)
        assert status == VIP_ERROR_CONN_LOST

    def test_rdma_read_on_dead_connection(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        pkt = Packet(kind=DescriptorType.RDMA_READ,
                     src_nic=cluster[0].nic.name, src_vi=vi_s.vi_id,
                     dst_nic=cluster[1].nic.name, dst_vi=999,
                     remote_handle=1, remote_va=0, read_length=4)
        status, payload = cluster[1].nic.serve_rdma_read(
            pkt, ReliabilityLevel.RELIABLE_DELIVERY)
        assert status == VIP_ERROR_CONN_LOST and payload == b""


class TestMiscKernelPaths:
    def test_deregister_before_delivery_faults_cleanly(self):
        """A posted receive whose region is deregistered before the
        matching send arrives completes with VIP_INVALID_MEMORY."""
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        rva = ua_r.task.mmap(1)
        rreg = ua_r.register_mem(rva, PAGE_SIZE)
        desc = Descriptor.recv([ua_r.segment(rreg)])
        ua_r.post_recv(vi_r, desc)
        ua_r.deregister_mem(rreg)          # pulled out from under it
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        ua_s.send_bytes(vi_s, sreg, b"x")
        got = ua_r.recv_done(vi_r)
        assert got.status == "VIP_INVALID_MEMORY"


class TestTrimSegments:
    def test_trims_exactly(self):
        segs = [(0, 10), (100, 10)]
        assert _trim_segments(segs, 15) == [(0, 10), (100, 5)]
        assert _trim_segments(segs, 10) == [(0, 10)]
        assert _trim_segments(segs, 0) == []

    def test_insufficient_coverage_rejected(self):
        with pytest.raises(DescriptorError):
            _trim_segments([(0, 4)], 10)


class TestRegcacheRdmaRead:
    def test_rdma_read_attr_cached_separately(self):
        from repro.core.regcache import RegistrationCache
        m = Machine(num_frames=256, backend="kiobuf")
        t = m.spawn()
        m.user_agent(t)
        cache = RegistrationCache(m.agent, t)
        va = t.mmap(2)
        cache.acquire(va, PAGE_SIZE)
        cache.acquire(va, PAGE_SIZE, rdma_read=True)
        assert cache.stats.misses == 2
        cache.acquire(va, PAGE_SIZE, rdma_read=True)
        assert cache.stats.hits == 1
