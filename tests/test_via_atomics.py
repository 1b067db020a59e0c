"""Remote atomic verbs: descriptor shape, end-to-end semantics, typed
rejects, per-word serialization, and the retransmit-dedup property.

VIA itself has no atomics; these follow the InfiniBand verbs they are
modelled on (ATOMIC_CMPSWAP / ATOMIC_FETCHADD on a naturally aligned
8-byte word, original value returned in the completion).  The property
sweep at the bottom is the acceptance test for the idempotency guard:
N interleaved client streams under packet loss and duplication must
match a sequential oracle exactly — a retransmitted atomic whose
response was lost after execution is answered from the responder's
response cache, never re-executed.
"""

from dataclasses import replace

import pytest

from repro.errors import DescriptorError
from repro.hw.physmem import PAGE_SIZE
from repro.sim.costs import FREE
from repro.sim.faults import FaultPlan
from repro.via.constants import (
    VIP_INVALID_MEMORY, VIP_INVALID_PARAMETER, VIP_PROTECTION_ERROR,
    VIP_SUCCESS, DescriptorType, ReliabilityLevel,
)
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.fabric import Packet
from repro.via.machine import Cluster
from tests.pairs import connected_pair

U64 = 0xFFFF_FFFF_FFFF_FFFF


def seg(handle=1, va=0x1000, length=8):
    return DataSegment(handle, va, length)


def _word(task, va):
    """Read the 8-byte word at ``va`` through the task's page tables."""
    return int.from_bytes(task.read(va, 8), "little")


class TestAtomicDescriptors:
    """Shape rules enforced before posting."""

    def test_constructors_validate(self):
        Descriptor.atomic_cmpswap([seg()], 9, 0x2000, 0, 1).validate()
        Descriptor.atomic_fetchadd([seg()], 9, 0x2000, 5).validate()

    def test_misaligned_target_rejected(self):
        d = Descriptor.atomic_fetchadd([seg()], 9, 0x2004, 1)
        with pytest.raises(DescriptorError, match="aligned"):
            d.validate()

    def test_exactly_one_eight_byte_segment(self):
        with pytest.raises(DescriptorError, match="exactly one"):
            Descriptor.atomic_fetchadd([seg(), seg()], 9, 0x2000,
                                       1).validate()
        with pytest.raises(DescriptorError, match="8 bytes"):
            Descriptor.atomic_fetchadd([seg(length=4)], 9, 0x2000,
                                       1).validate()

    def test_atomics_cannot_carry_immediate_data(self):
        d = Descriptor.atomic_fetchadd([seg()], 9, 0x2000, 1)
        d.immediate_data = b"TAG!"
        with pytest.raises(DescriptorError, match="immediate"):
            d.validate()

    def test_operand_presence_and_range(self):
        d = Descriptor(DescriptorType.ATOMIC_CMPSWAP, [seg()],
                       remote_handle=9, remote_va=0x2000, compare=0)
        with pytest.raises(DescriptorError, match="swap"):
            d.validate()
        with pytest.raises(DescriptorError, match="64-bit"):
            Descriptor.atomic_fetchadd([seg()], 9, 0x2000,
                                       U64 + 1).validate()
        with pytest.raises(DescriptorError, match="64-bit"):
            Descriptor.atomic_cmpswap([seg()], 9, 0x2000, -1, 0).validate()

    def test_stray_operands_rejected_both_ways(self):
        d = Descriptor.atomic_cmpswap([seg()], 9, 0x2000, 0, 1)
        d.add = 3
        with pytest.raises(DescriptorError, match="add"):
            d.validate()
        d2 = Descriptor.atomic_fetchadd([seg()], 9, 0x2000, 1)
        d2.swap = 3
        with pytest.raises(DescriptorError, match="swap"):
            d2.validate()
        d3 = Descriptor.send([seg()])
        d3.compare = 1
        with pytest.raises(DescriptorError, match="atomic"):
            d3.validate()

    def test_empty_immediate_on_rdma_read_still_rejected(self):
        # Regression: ``b""`` is falsy, and a truthiness check used to
        # let a zero-length immediate slip through the RDMA-read rule.
        d = Descriptor.rdma_read([seg()], 9, 0x2000)
        d.immediate_data = b""
        with pytest.raises(DescriptorError, match="immediate"):
            d.validate()


class _AtomicPair:
    """A connected pair with an atomic-enabled remote region."""

    def __init__(self, backend="kiobuf", costs=None, atomic_enable=True):
        (self.cluster, self.ua_s, self.ua_r,
         self.vi_s, self.vi_r) = connected_pair(backend, costs=costs)
        self.rva = self.ua_r.task.mmap(1)
        self.ua_r.task.touch_pages(self.rva, 1)
        self.rreg = self.ua_r.register_mem(self.rva, PAGE_SIZE,
                                           rdma_write=True,
                                           rdma_atomic=atomic_enable)
        self.lva = self.ua_s.task.mmap(1)
        self.lreg = self.ua_s.register_mem(self.lva, PAGE_SIZE)

    def set_word(self, offset, value):
        self.ua_r.task.write(self.rva + offset, value.to_bytes(8, "little"))

    def word(self, offset=0):
        return _word(self.ua_r.task, self.rva + offset)


class TestAtomicSemantics:
    def test_fetchadd_returns_original_and_applies(self):
        p = _AtomicPair()
        p.set_word(0, 40)
        d = p.ua_s.atomic_fetchadd(p.vi_s, p.lreg, p.rreg.handle,
                                   p.rva, 2)
        assert d.status == VIP_SUCCESS
        assert d.atomic_original_value == 40
        assert p.word() == 42
        # the original value also lands in the local 8-byte segment
        assert _word(p.ua_s.task, p.lva) == 40

    def test_fetchadd_wraps_mod_2_64(self):
        p = _AtomicPair()
        p.set_word(0, U64)
        d = p.ua_s.atomic_fetchadd(p.vi_s, p.lreg, p.rreg.handle,
                                   p.rva, 3)
        assert d.atomic_original_value == U64
        assert p.word() == 2

    def test_cmpswap_hit_and_miss(self):
        p = _AtomicPair()
        p.set_word(8, 7)
        hit = p.ua_s.atomic_cmpswap(p.vi_s, p.lreg, p.rreg.handle,
                                    p.rva + 8, 7, 99)
        assert hit.status == VIP_SUCCESS
        assert hit.atomic_original_value == 7
        assert p.word(8) == 99
        miss = p.ua_s.atomic_cmpswap(p.vi_s, p.lreg, p.rreg.handle,
                                     p.rva + 8, 7, 123)
        assert miss.status == VIP_SUCCESS
        assert miss.atomic_original_value == 99   # tells us who holds it
        assert p.word(8) == 99                    # unchanged on miss

    def test_original_value_travels_on_the_cq(self):
        cluster, ua_s, ua_r, _, _ = connected_pair("kiobuf")
        cq = ua_s.create_cq()
        vi_s = ua_s.create_vi(send_cq=cq)
        vi_r = ua_r.create_vi()
        cluster.connect(vi_s, cluster[0], vi_r, cluster[1])
        rva = ua_r.task.mmap(1)
        ua_r.task.touch_pages(rva, 1)
        rreg = ua_r.register_mem(rva, PAGE_SIZE, rdma_atomic=True)
        ua_r.task.write(rva, (17).to_bytes(8, "little"))
        lva = ua_s.task.mmap(1)
        lreg = ua_s.register_mem(lva, PAGE_SIZE)
        ua_s.atomic_fetchadd(vi_s, lreg, rreg.handle, rva, 1)
        [comp] = cq.drain_batch(1)
        assert comp.queue == "send"
        assert comp.atomic_original_value == 17
        assert comp.descriptor.atomic_original_value == 17
        batch = cq.drain_batch()
        assert batch == []

    def test_counters(self):
        p = _AtomicPair()
        for i in range(3):
            p.ua_s.atomic_fetchadd(p.vi_s, p.lreg, p.rreg.handle, p.rva, 1)
        assert p.ua_s.nic.atomics_completed == 3
        assert p.cluster.trace.count("dma_atomic") == 3
        assert p.cluster.trace.count("via_atomic_reject") == 0


class TestAtomicRejects:
    def test_unreliable_vi_rejected_at_post(self):
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair(
            "kiobuf", reliability=ReliabilityLevel.UNRELIABLE)
        lva = ua_s.task.mmap(1)
        lreg = ua_s.register_mem(lva, PAGE_SIZE)
        with pytest.raises(DescriptorError, match="RELIABLE"):
            ua_s.atomic_fetchadd(vi_s, lreg, 999, 0x2000, 1)

    def test_no_atomic_enable_is_protection_error(self):
        p = _AtomicPair(atomic_enable=False)
        d = p.ua_s.atomic_fetchadd(p.vi_s, p.lreg, p.rreg.handle,
                                   p.rva, 1)
        assert d.status == VIP_PROTECTION_ERROR
        rejects = p.cluster.trace.of_kind("via_atomic_reject")
        assert [e["nic"] for e in rejects] == [p.ua_r.nic.name]

    def test_responder_rejects_misaligned_packet(self):
        # Descriptor validation stops a misaligned post at the requester;
        # the responder still refuses a crafted wire packet on its own.
        p = _AtomicPair()
        packet = Packet(DescriptorType.ATOMIC_FETCHADD,
                        src_nic=p.ua_s.nic.name, src_vi=p.vi_s.vi_id,
                        dst_nic=p.ua_r.nic.name, dst_vi=p.vi_r.vi_id,
                        remote_handle=p.rreg.handle, remote_va=p.rva + 4,
                        add=1, seq=1)
        status, original = p.ua_r.nic.serve_atomic(
            packet, ReliabilityLevel.RELIABLE_DELIVERY)
        assert (status, original) == (VIP_INVALID_PARAMETER, 0)

    @pytest.mark.san_suppress("mlock-nesting")
    def test_unpinned_word_rejected(self):
        # §3.2's naive-munlock hazard: deregistering an overlapping
        # region annuls the survivor's pins while its TPT entry lives.
        # Fire-and-forget DMA stays "unhelpful" there; the atomic unit
        # refuses to RMW an unpinned word.
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("mlock_naive")
        rva = ua_r.task.mmap(1)
        ua_r.task.touch_pages(rva, 1)
        r1 = ua_r.register_mem(rva, PAGE_SIZE)
        r2 = ua_r.register_mem(rva, PAGE_SIZE, rdma_atomic=True)
        ua_r.deregister_mem(r1)          # annuls r2's pin
        lva = ua_s.task.mmap(1)
        lreg = ua_s.register_mem(lva, PAGE_SIZE)
        d = ua_s.atomic_fetchadd(vi_s, lreg, r2.handle, rva, 1)
        assert d.status == VIP_INVALID_MEMORY
        assert [e["nic"] for e in
                cluster.trace.of_kind("via_atomic_reject")] == [ua_r.nic.name]
        ua_r.deregister_mem(r2)


class TestAtomicSerialization:
    def test_contention_window_serializes_a_word(self):
        costs = replace(FREE, atomic_contention_window_ns=10_000)
        p = _AtomicPair(costs=costs)
        p.cluster.obs.enable()
        for _ in range(4):
            p.ua_s.atomic_fetchadd(p.vi_s, p.lreg, p.rreg.handle,
                                   p.rva, 1)
        # every atomic after the first lands inside the previous one's
        # contention window and stalls a full window on the sim clock
        assert p.cluster.obs.counter("via.atomic.contended").value == 3
        assert p.cluster.clock.now_ns >= 3 * 10_000
        assert p.word() == 4

    def test_distinct_words_do_not_contend(self):
        costs = replace(FREE, atomic_contention_window_ns=10_000)
        p = _AtomicPair(costs=costs)
        p.cluster.obs.enable()
        for i in range(4):
            p.ua_s.atomic_fetchadd(p.vi_s, p.lreg, p.rreg.handle,
                                   p.rva + 8 * i, 1)
        assert p.cluster.obs.counter("via.atomic.contended").value == 0


class TestDedupProperty:
    """Satellite acceptance: interleaved streams under loss+duplication
    match the sequential oracle — dedup prevents double-apply."""

    N_CLIENTS = 4
    OPS_EACH = 40

    def _run(self, loss, dup, seed=0):
        cluster = Cluster(2, seed=seed)
        target = cluster[1].spawn("target")
        ua_t = cluster[1].user_agent(target)
        rva = target.mmap(1)
        target.touch_pages(rva, 1)
        rreg = ua_t.register_mem(rva, PAGE_SIZE, rdma_atomic=True)
        streams = []
        for i in range(self.N_CLIENTS):
            task = cluster[0].spawn(f"client{i}")
            ua = cluster[0].user_agent(task)
            vi = ua.create_vi()
            vi_srv = ua_t.create_vi()
            cluster.connect(vi, cluster[0], vi_srv, cluster[1])
            lva = task.mmap(1)
            lreg = ua.register_mem(lva, PAGE_SIZE)
            streams.append((ua, vi, lreg))
        cluster.inject_faults(FaultPlan(seed=seed, loss_rate=loss,
                                        duplicate_rate=dup))
        originals = []
        for step in range(self.OPS_EACH):
            for ua, vi, lreg in streams:
                d = ua.atomic_fetchadd(vi, lreg, rreg.handle, rva, 1)
                assert d.status == VIP_SUCCESS
                assert d.atomic_original_value is not None
                originals.append(d.atomic_original_value)
        cluster.inject_faults(None)
        total = self.N_CLIENTS * self.OPS_EACH
        # Sequential oracle: one FETCH_ADD(+1) stream would observe
        # exactly 0..total-1 and leave the word at total.  Any
        # re-executed retransmit shows up as a duplicated original or an
        # over-count; any lost apply as a gap.
        assert _word(target, rva) == total
        assert sorted(originals) == list(range(total))
        return cluster

    def test_clean_fabric_matches_oracle(self):
        self._run(loss=0.0, dup=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lossy_duplicating_fabric_matches_oracle(self, seed):
        cluster = self._run(loss=0.25, dup=0.20, seed=seed)
        # loss after execution forces replay-from-cache at least once
        assert cluster[1].nic.name in [
            e["nic"] for e in cluster.trace.of_kind("via_atomic_replay")]
