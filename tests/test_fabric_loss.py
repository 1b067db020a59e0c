"""Fabric loss-path coverage: packets_sent/packets_dropped accounting
and the fire-and-forget guarantee of UNRELIABLE VIs."""

import pytest

from repro.errors import QueueEmpty
from repro.hw.physmem import PAGE_SIZE
from repro.sim.faults import FaultPlan
from repro.via.constants import VIP_SUCCESS, ReliabilityLevel
from repro.via.descriptor import Descriptor
from tests.pairs import connected_pair


def unreliable_pair(seed=0, **kwargs):
    return connected_pair("kiobuf",
                          reliability=ReliabilityLevel.UNRELIABLE,
                          seed=seed, **kwargs)


def post_recv_buffer(ua, vi, npages=2):
    va = ua.task.mmap(npages)
    reg = ua.register_mem(va, npages * PAGE_SIZE)
    desc = Descriptor.recv([ua.segment(reg)])
    ua.post_recv(vi, desc)
    return va, reg, desc


class TestLossAccounting:
    def test_no_loss_counts_sent_only(self):
        cluster, ua_s, ua_r, vi_s, vi_r = unreliable_pair()
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        for i in range(10):
            post_recv_buffer(ua_r, vi_r)
            ua_s.send_bytes(vi_s, sreg, b"x" * 32)
        assert cluster.fabric.packets_sent == 10
        assert cluster.fabric.packets_dropped == 0

    def test_total_loss_drops_every_packet(self):
        cluster, ua_s, ua_r, vi_s, vi_r = unreliable_pair()
        cluster.inject_faults(FaultPlan(seed=0, loss_rate=1.0))
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        for i in range(10):
            post_recv_buffer(ua_r, vi_r)
            ua_s.send_bytes(vi_s, sreg, b"x" * 32)
        assert cluster.fabric.packets_sent == 10
        assert cluster.fabric.packets_dropped == 10
        assert ua_r.nic.recvs_completed == 0

    def test_partial_loss_sums_delivered_and_dropped(self):
        cluster, ua_s, ua_r, vi_s, vi_r = unreliable_pair(seed=7)
        cluster.inject_faults(FaultPlan(seed=7, loss_rate=0.5))
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        n = 40
        for i in range(n):
            post_recv_buffer(ua_r, vi_r)
            ua_s.send_bytes(vi_s, sreg, b"x" * 32)
        fabric = cluster.fabric
        assert fabric.packets_sent == n
        assert 0 < fabric.packets_dropped < n
        # every packet either arrived or was dropped — none vanished
        assert ua_r.nic.recvs_completed == n - fabric.packets_dropped

    def test_loss_events_are_traced(self):
        cluster, ua_s, ua_r, vi_s, vi_r = unreliable_pair()
        cluster.inject_faults(FaultPlan(seed=0, loss_rate=1.0))
        post_recv_buffer(ua_r, vi_r)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        ua_s.send_bytes(vi_s, sreg, b"gone")
        assert cluster.trace.count("packet_lost") == 1


class TestUnreliableNeverRaises:
    def test_drop_completes_send_with_success(self):
        """The UNRELIABLE sender can never tell: the descriptor completes
        VIP_SUCCESS, nothing raises, and the receiver simply sees
        nothing."""
        cluster, ua_s, ua_r, vi_s, vi_r = unreliable_pair()
        cluster.inject_faults(FaultPlan(seed=0, loss_rate=1.0))
        post_recv_buffer(ua_r, vi_r)
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        desc = ua_s.send_bytes(vi_s, sreg, b"lost")
        assert desc.status == VIP_SUCCESS
        assert desc.done
        with pytest.raises(QueueEmpty):
            ua_r.recv_done(vi_r)

    def test_vi_stays_connected_through_sustained_loss(self):
        from repro.via.constants import ViState
        cluster, ua_s, ua_r, vi_s, vi_r = unreliable_pair()
        cluster.inject_faults(FaultPlan(seed=0, loss_rate=1.0))
        sva = ua_s.task.mmap(1)
        sreg = ua_s.register_mem(sva, PAGE_SIZE)
        for _ in range(20):
            desc = ua_s.send_bytes(vi_s, sreg, b"spray")
            assert desc.status == VIP_SUCCESS
        assert vi_s.state == ViState.CONNECTED
        assert vi_r.state == ViState.CONNECTED

    def test_deterministic_given_seed(self):
        def run():
            cluster, ua_s, ua_r, vi_s, vi_r = unreliable_pair(seed=3)
            cluster.inject_faults(FaultPlan(seed=3, loss_rate=0.3))
            sva = ua_s.task.mmap(1)
            sreg = ua_s.register_mem(sva, PAGE_SIZE)
            for i in range(30):
                post_recv_buffer(ua_r, vi_r)
                ua_s.send_bytes(vi_s, sreg, b"y" * 16)
            return cluster.fabric.packets_dropped
        assert run() == run()
