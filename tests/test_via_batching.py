"""Batched descriptor posting and completion draining (E18 data plane)."""

import pytest

from repro.errors import DescriptorError
from repro.hw.physmem import PAGE_SIZE
from repro.via.constants import VIP_SUCCESS, ReliabilityLevel
from repro.via.cq import CompletionQueue
from repro.via.descriptor import DataSegment, Descriptor
from tests.pairs import connected_pair


@pytest.fixture
def pair():
    return connected_pair("kiobuf")


def recv_descs(ua, vi=None, n=4, npages=1):
    """Build ``n`` receive descriptors over fresh registered buffers."""
    descs = []
    for _ in range(n):
        va = ua.task.mmap(npages)
        reg = ua.register_mem(va, npages * PAGE_SIZE)
        descs.append(Descriptor.recv([ua.segment(reg)]))
    return descs


def send_descs(ua, payloads):
    """Write each payload into its own registered page and build a send
    descriptor for it."""
    descs = []
    for data in payloads:
        va = ua.task.mmap(1)
        reg = ua.register_mem(va, PAGE_SIZE)
        ua.task.write(va, data)
        descs.append(Descriptor.send([DataSegment(reg.handle, va,
                                                  len(data))]))
    return descs


class TestBatchedPosting:
    def test_batched_roundtrip_matches_singles(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        rdescs = recv_descs(ua_r, n=4)
        assert ua_r.post_recv_many(vi_r, rdescs) == 4
        payloads = [f"batched-{i}".encode() for i in range(4)]
        sdescs = send_descs(ua_s, payloads)
        assert ua_s.post_send_many(vi_s, sdescs) == 4
        for sdesc in sdescs:
            assert sdesc.status == VIP_SUCCESS
        for i, expect in enumerate(payloads):
            got = ua_r.recv_done(vi_r)
            assert got is rdescs[i]
            assert ua_r.recv_bytes(vi_r, got) == expect

    def test_batch_amortizes_doorbell_and_fetch_charges(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        costs = ua_r.agent.kernel.costs
        n = 8
        batch = recv_descs(ua_r, n=n)
        singles = recv_descs(ua_r, n=n)
        clock = cluster.clock
        with clock.measure() as batched:
            ua_r.post_recv_many(vi_r, batch)
        with clock.measure() as one_by_one:
            for desc in singles:
                ua_r.post_recv(vi_r, desc)
        # The batch pays build per descriptor but doorbell + fetch once.
        saved = (n - 1) * (costs.doorbell_ring_ns
                           + costs.descriptor_fetch_ns)
        assert one_by_one.elapsed_ns - batched.elapsed_ns == saved

    def test_batch_validation_is_all_or_nothing(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        good = recv_descs(ua_r, n=2)
        bad = send_descs(ua_s, [b"wrong-queue"])[0]
        before = len(vi_r.recv_queue)
        with pytest.raises(DescriptorError):
            ua_r.post_recv_many(vi_r, good[:1] + [bad] + good[1:])
        assert len(vi_r.recv_queue) == before

        rogue = recv_descs(ua_r, n=1)[0]
        with pytest.raises(DescriptorError):
            ua_s.post_send_many(vi_s, [rogue])
        assert len(vi_s.send_queue) == 0

    def test_empty_batch_is_a_noop(self, pair):
        cluster, ua_s, ua_r, vi_s, vi_r = pair
        before = cluster.clock.now_ns
        assert ua_r.post_recv_many(vi_r, []) == 0
        assert ua_s.post_send_many(vi_s, []) == 0
        assert cluster.clock.now_ns == before


class TestDrainBatch:
    def test_drains_fifo_and_empties_queue(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        # Rebuild the receive side on a CQ so completions aggregate.
        cq = ua_r.create_cq()
        vi_r2 = ua_r.create_vi(recv_cq=cq)
        vi_s2 = ua_s.create_vi()
        cluster.connect(vi_s2, cluster[0], vi_r2, cluster[1])
        rdescs = recv_descs(ua_r, n=3)
        ua_r.post_recv_many(vi_r2, rdescs)
        ua_s.post_send_many(vi_s2, send_descs(
            ua_s, [b"a", b"b", b"c"]))
        assert len(cq) == 3
        completions = cq.drain_batch()
        assert [c.descriptor for c in completions] == rdescs
        assert all(c.queue == "recv" and c.vi_id == vi_r2.vi_id
                   for c in completions)
        assert len(cq) == 0
        assert cq.drain_batch() == []

    def test_max_items_caps_the_drain(self):
        cq = CompletionQueue()
        for i in range(5):
            cq.post(_completion(i))
        first = cq.drain_batch(max_items=2)
        assert [c.vi_id for c in first] == [0, 1]
        assert cq.drain_batch(max_items=0) == []
        rest = cq.drain_batch(max_items=99)
        assert [c.vi_id for c in rest] == [2, 3, 4]
        assert len(cq) == 0


def _completion(vi_id):
    from repro.via.cq import Completion
    return Completion(vi_id=vi_id, queue="send", descriptor=None)
