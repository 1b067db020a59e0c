"""The link-layer CRC: hashed only when the wire changed the bytes.

A sending NIC stamps each reliable packet with the ``bytes`` it gathered
out of memory, and the receiving side hashes only a payload that is not
that object.  These tests pin the rule from four sides: a clean fabric
hashes nothing; under seeded fault plans the check gives exactly what an
eager check that always hashes gives; a stamp that differs from the
payload is still refused; and DMA gathers return the immutable ``bytes``
the shortcut relies on.  ``REPRO_CHAOS_SEED`` (used by the CI chaos job)
varies the fault plans.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest

from repro.hw.physmem import PAGE_SIZE
from repro.sim.faults import FaultPlan
from repro.via import fabric as fabric_mod
from repro.via.constants import (
    VIP_SUCCESS, DescriptorType, ReliabilityLevel,
)
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.fabric import Packet, payload_checksum
from tests.pairs import connected_pair

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: pages in each side's send/receive buffer
BUF_PAGES = 3


def _count_checksums(monkeypatch) -> list[int]:
    """Count every call of the link-layer CRC, wherever it is bound."""
    calls: list[int] = []

    def counting(payload):
        calls.append(len(payload))
        return payload_checksum(payload)

    monkeypatch.setattr(fabric_mod, "payload_checksum", counting)
    monkeypatch.setattr("repro.via.nic.payload_checksum", counting,
                        raising=False)
    return calls


def _eager_crc_ok(packet: Packet) -> bool:
    """Reference check: hash both sides of every stamped packet."""
    return (packet.stamped is None
            or payload_checksum(packet.payload)
            == payload_checksum(packet.stamped))


def _traffic(plan: FaultPlan | None, rounds: int, seed: int) -> dict:
    """Alternate sends and RDMA writes of 1 B .. 3 pages between a
    connected reliable pair, checking every delivered byte, and return
    the observables the CRC decides."""
    cluster, ua_s, ua_r, vi_s, vi_r = connected_pair(
        "kiobuf", num_frames=256)
    nbytes = BUF_PAGES * PAGE_SIZE
    lva = ua_s.task.mmap(BUF_PAGES)
    ua_s.task.touch_pages(lva, BUF_PAGES)
    lreg = ua_s.register_mem(lva, nbytes)
    rva = ua_r.task.mmap(BUF_PAGES)
    ua_r.task.touch_pages(rva, BUF_PAGES)
    rreg = ua_r.register_mem(rva, nbytes, rdma_write=True)
    if plan is not None:
        cluster.inject_faults(plan)
    rng = np.random.default_rng(seed)
    delivered = 0
    for i in range(rounds):
        n = int(rng.integers(1, nbytes + 1))
        data = bytes(rng.integers(0, 256, n, dtype=np.uint8))
        ua_s.task.write(lva, data)
        segment = DataSegment(lreg.handle, lva, n)
        if i % 2:
            desc = Descriptor.rdma_write(
                [segment], remote_handle=rreg.handle, remote_va=rva)
        else:
            ua_r.post_recv(vi_r, Descriptor.recv([ua_r.segment(rreg)]))
            desc = Descriptor.send([segment])
        ua_s.post_send(vi_s, desc)
        if desc.status != VIP_SUCCESS:
            break
        if not i % 2:
            assert ua_r.recv_done(vi_r).length_transferred == n
        assert ua_r.task.read(rva, n) == data
        delivered += n
    fab = cluster.fabric
    return {
        "delivered": delivered,
        "packets_sent": fab.packets_sent,
        "packets_dropped": fab.packets_dropped,
        "packets_nacked": fab.packets_nacked,
        "acks_dropped": fab.acks_dropped,
        "retransmits": ua_s.nic.retransmits,
        "now_ns": cluster.machines[0].kernel.clock.now_ns,
        "trace": Counter(event.kind for event in cluster.trace),
    }


class TestCleanFabric:
    def test_reliable_sends_and_rdma_writes_hash_nothing(self, monkeypatch):
        calls = _count_checksums(monkeypatch)
        got = _traffic(None, rounds=24, seed=SEED)
        assert got["delivered"] > 0
        assert got["trace"]["packet_nack"] == 0
        assert calls == []

    @staticmethod
    def _deliver(payload, stamped):
        """Hand one packet to a clean fabric, with a receive posted."""
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        va = ua_r.task.mmap(1)
        reg = ua_r.register_mem(va, PAGE_SIZE)
        ua_r.post_recv(vi_r, Descriptor.recv([ua_r.segment(reg)]))
        packet = Packet(
            kind=DescriptorType.SEND, src_nic=ua_s.nic.name,
            src_vi=vi_s.vi_id, dst_nic=ua_r.nic.name, dst_vi=vi_r.vi_id,
            payload=payload, seq=1, stamped=stamped)
        attempt = cluster.fabric.attempt_delivery(
            ua_s.nic, packet, ReliabilityLevel.RELIABLE_DELIVERY)
        return cluster, ua_r, vi_r, va, attempt

    def test_a_stamp_that_differs_from_the_payload_is_nacked(self):
        cluster, _ua_r, vi_r, _va, attempt = self._deliver(
            b"as it arrived", b"as it was sent")
        assert attempt.kind == "nack"
        assert not vi_r.recv_done
        assert cluster.fabric.packets_nacked == 1
        assert cluster.trace.count("packet_nack") == 1

    def test_a_mutable_payload_is_hashed_even_if_stamped(self,
                                                          monkeypatch):
        calls = _count_checksums(monkeypatch)
        buf = bytearray(b"same object")
        _cluster, ua_r, _vi_r, va, attempt = self._deliver(buf, buf)
        assert attempt.kind == "delivered"
        assert ua_r.task.read(va, len(buf)) == buf
        assert calls == [len(buf), len(buf)]

    def test_an_unstamped_packet_is_not_verified(self):
        _cluster, ua_r, _vi_r, va, attempt = self._deliver(
            b"control", None)
        assert attempt.kind == "delivered"
        assert ua_r.task.read(va, 7) == b"control"


PLANS = [
    dict(corrupt_rate=0.3),
    dict(loss_rate=0.1, duplicate_rate=0.2, corrupt_rate=0.15,
         delay_rate=0.1),
    dict(loss_rate=0.2, duplicate_rate=0.1, corrupt_rate=0.3,
         delay_rate=0.05),
]


@pytest.mark.parametrize("rates", PLANS)
@pytest.mark.parametrize("seed", [SEED, SEED + 7])
def test_faulty_fabric_matches_an_eager_check(rates, seed, monkeypatch):
    """Corruption, duplication, loss and delay: the shortcut and a check
    that hashes every stamped packet agree on every observable."""
    fast = _traffic(FaultPlan(seed=seed, **rates), rounds=40, seed=seed)
    monkeypatch.setattr(fabric_mod, "crc_ok", _eager_crc_ok)
    eager = _traffic(FaultPlan(seed=seed, **rates), rounds=40, seed=seed)
    assert fast == eager
    if rates.get("corrupt_rate", 0) >= 0.3:
        assert fast["packets_nacked"] > 0
        assert fast["trace"]["packet_corrupted"] > 0


def test_a_corrupted_attempt_is_hashed(monkeypatch):
    calls = _count_checksums(monkeypatch)
    got = _traffic(FaultPlan(seed=SEED, corrupt_rate=0.5), rounds=12,
                   seed=SEED)
    corrupted = got["trace"]["packet_corrupted"]
    assert corrupted > 0
    # one hash of the corrupted payload and one of the stamp per
    # corrupted attempt; a clean attempt hashes nothing
    assert len(calls) == 2 * corrupted


def test_an_empty_payload_is_never_corrupted():
    """A zero-byte send has no byte to flip: even at ``corrupt_rate=1``
    it completes, and no corruption is counted or reported."""
    cluster, ua_s, ua_r, vi_s, vi_r = connected_pair(
        "kiobuf", num_frames=64)
    sreg = ua_s.register_mem(ua_s.task.mmap(1), PAGE_SIZE)
    rreg = ua_r.register_mem(ua_r.task.mmap(1), PAGE_SIZE)
    plan = FaultPlan(seed=SEED, corrupt_rate=1.0)
    cluster.inject_faults(plan)
    ua_r.post_recv(vi_r, Descriptor.recv([ua_r.segment(rreg)]))
    desc = ua_s.send_bytes(vi_s, sreg, b"")
    assert desc.status == VIP_SUCCESS
    assert ua_r.recv_done(vi_r).length_transferred == 0
    assert cluster.trace.count("packet_corrupted") == 0
    assert plan.stats.corruptions == 0


class TestGathersReturnBytes:
    """The identity shortcut needs an immutable payload: ``read_gather``
    hands the NIC ``bytes`` however many spans it joins."""

    def _gather(self, segments):
        machine = connected_pair("kiobuf", num_frames=64)[0].machines[0]
        machine.kernel.phys.write_frame(10, bytes(range(256)) * 16)
        machine.kernel.phys.write_frame(12, b"\xab" * PAGE_SIZE)
        return machine.nic.dma.read_gather(segments)

    def test_single_span(self):
        out = self._gather([(10 * PAGE_SIZE + 3, 100)])
        assert type(out) is bytes
        assert out == bytes(range(3, 103))

    def test_multi_span(self):
        out = self._gather([(10 * PAGE_SIZE, 4), (12 * PAGE_SIZE, 3),
                            (10 * PAGE_SIZE + 250, 8)])
        assert type(out) is bytes
        assert out == (bytes(range(4)) + b"\xab" * 3
                       + bytes([250, 251, 252, 253, 254, 255, 0, 1]))

    def test_no_span(self):
        out = self._gather([])
        assert type(out) is bytes and out == b""
