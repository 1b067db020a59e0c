"""Tests for the messaging layer (endpoints, protocols, MPI facade)."""

import numpy as np
import pytest

from repro.errors import ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.msg.endpoint import Endpoint, make_pair
from repro.msg.mpi_like import MpiPair
from repro.msg.protocols import (
    EagerProtocol, PioProtocol, RendezvousCopyProtocol,
    RendezvousZeroCopyProtocol,
)
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import Cluster


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def payload_bytes(rng, n: int) -> bytes:
    return bytes(rng.integers(0, 256, n, dtype=np.uint8))


@pytest.fixture
def pair():
    cluster = Cluster(2, num_frames=2048)
    s, r = make_pair(cluster)
    return cluster, s, r


def alloc_buffers(s: Endpoint, r: Endpoint, nbytes: int):
    pages = nbytes // PAGE_SIZE + 2
    src = s.task.mmap(pages)
    s.task.touch_pages(src, pages)
    dst = r.task.mmap(pages)
    r.task.touch_pages(dst, pages)
    return src, dst


PROTOCOLS = [
    EagerProtocol(),
    RendezvousCopyProtocol(),
    RendezvousZeroCopyProtocol(use_cache=False),
    RendezvousZeroCopyProtocol(use_cache=True),
    PioProtocol(use_cache=False),
    PioProtocol(use_cache=True),
]


class TestProtocolCorrectness:
    @pytest.mark.parametrize("proto", PROTOCOLS, ids=lambda p: p.name)
    @pytest.mark.parametrize("size", [1, 100, PAGE_SIZE,
                                      PAGE_SIZE + 1, 5 * PAGE_SIZE + 17])
    def test_payload_arrives_intact(self, pair, rng, proto, size):
        cluster, s, r = pair
        src, dst = alloc_buffers(s, r, size)
        data = payload_bytes(rng, size)
        s.task.write(src, data)
        res = proto.transfer(s, r, src, dst, size)
        assert res.ok and not res.corrupt
        assert r.task.read(dst, size) == data

    def test_eager_has_no_registrations(self, pair, rng):
        cluster, s, r = pair
        src, dst = alloc_buffers(s, r, 8192)
        s.task.write(src, payload_bytes(rng, 8192))
        res = EagerProtocol().transfer(s, r, src, dst, 8192)
        assert res.registrations == 0
        assert res.copies_bytes >= 2 * 8192   # copies on both sides

    def test_zerocopy_has_no_bulk_copies(self, pair, rng):
        cluster, s, r = pair
        size = 64 * 1024
        src, dst = alloc_buffers(s, r, size)
        s.task.write(src, payload_bytes(rng, size))
        res = RendezvousZeroCopyProtocol(False).transfer(
            s, r, src, dst, size)
        assert res.registrations == 2       # both user buffers
        assert res.copies_bytes < 1024      # control messages only

    def test_cache_turns_registrations_into_hits(self, pair, rng):
        cluster, s, r = pair
        size = 64 * 1024
        src, dst = alloc_buffers(s, r, size)
        s.task.write(src, payload_bytes(rng, size))
        proto = RendezvousZeroCopyProtocol(use_cache=True)
        first = proto.transfer(s, r, src, dst, size)
        second = proto.transfer(s, r, src, dst, size)
        assert first.registrations == 2 and first.cache_hits == 0
        assert second.registrations == 0 and second.cache_hits == 2
        assert second.sim_ns < first.sim_ns

    def test_rendezvous_copy_uses_control_messages(self, pair, rng):
        cluster, s, r = pair
        src, dst = alloc_buffers(s, r, 4096)
        s.task.write(src, payload_bytes(rng, 4096))
        res = RendezvousCopyProtocol().transfer(s, r, src, dst, 4096)
        assert res.control_messages == 2    # RTS + CTS

    def test_zerocopy_faster_than_eager_for_large(self, pair, rng):
        cluster, s, r = pair
        size = 512 * 1024
        src, dst = alloc_buffers(s, r, size)
        s.task.write(src, payload_bytes(rng, size))
        eager = EagerProtocol().transfer(s, r, src, dst, size)
        zc = RendezvousZeroCopyProtocol(False).transfer(
            s, r, src, dst, size)
        assert zc.sim_ns < eager.sim_ns

    def test_eager_faster_than_zerocopy_for_tiny(self, pair, rng):
        cluster, s, r = pair
        size = 256
        src, dst = alloc_buffers(s, r, size)
        s.task.write(src, payload_bytes(rng, size))
        eager = EagerProtocol().transfer(s, r, src, dst, size)
        zc = RendezvousZeroCopyProtocol(False).transfer(
            s, r, src, dst, size)
        assert eager.sim_ns < zc.sim_ns


class TestPioProtocol:
    def test_pio_registers_receiver_window_only(self, pair, rng):
        cluster, s, r = pair
        src, dst = alloc_buffers(s, r, 8192)
        s.task.write(src, payload_bytes(rng, 8192))
        res = PioProtocol(use_cache=False).transfer(s, r, src, dst, 8192)
        assert res.ok
        assert res.registrations == 1    # only the exported window

    def test_pio_charges_cpu_not_dma(self, pair, rng):
        cluster, s, r = pair
        src, dst = alloc_buffers(s, r, 65536)
        s.task.write(src, payload_bytes(rng, 65536))
        clock = cluster.clock
        pio_before = clock.category_ns("pio")
        dma_before = clock.category_ns("dma")
        PioProtocol(use_cache=False).transfer(s, r, src, dst, 65536)
        costs = cluster[0].kernel.costs
        assert clock.category_ns("pio") - pio_before >= \
            costs.pio_stream_per_byte_ns * 65536 * 0.99
        assert clock.category_ns("dma") == dma_before

    def test_pio_lowest_small_message_latency(self, pair, rng):
        cluster, s, r = pair
        src, dst = alloc_buffers(s, r, 64)
        s.task.write(src, payload_bytes(rng, 64))
        pio = PioProtocol(use_cache=True)
        eager = EagerProtocol()
        pio.transfer(s, r, src, dst, 64)     # warm the window
        p = pio.transfer(s, r, src, dst, 64)
        e = eager.transfer(s, r, src, dst, 64)
        assert p.sim_ns < e.sim_ns


class TestEndpointMechanics:
    def test_bounce_slots_reposted(self, pair, rng):
        """After many chunks the receive queue must not drain."""
        cluster, s, r = pair
        src, dst = alloc_buffers(s, r, 40 * PAGE_SIZE)
        data = payload_bytes(rng, 40 * PAGE_SIZE)
        s.task.write(src, data)
        EagerProtocol().transfer(s, r, src, dst, 40 * PAGE_SIZE)
        assert len(r.vi.recv_queue) == len(r.bounce_slots)

    def test_oversize_chunk_rejected(self, pair):
        cluster, s, r = pair
        from repro.errors import ViaError
        with pytest.raises(ViaError):
            s.send_chunk(b"x" * (Endpoint.CHUNK + 1))

    def test_control_roundtrip(self, pair):
        cluster, s, r = pair
        s.send_control(b"hello-control")
        assert r.recv_control() == b"hello-control"


class TestCompletionReaping:
    """Whoever posts a send pops its completion: ``send_done`` holds
    nothing between operations, however long a run goes."""

    def test_send_chunk_loop_leaves_no_completions(self, pair):
        cluster, s, r = pair
        for i in range(40):
            s.send_chunk(b"chunk %d" % i)
            assert r.recv_chunk()[0] == b"chunk %d" % i
        assert not s.vi.send_done and not r.vi.send_done

    def test_zero_copy_loop_leaves_no_completions(self, pair, rng):
        cluster, s, r = pair
        size = 3 * PAGE_SIZE + 5
        src, dst = alloc_buffers(s, r, size)
        s.task.write(src, payload_bytes(rng, size))
        proto = RendezvousZeroCopyProtocol(use_cache=True)
        for _ in range(10):
            assert proto.transfer(s, r, src, dst, size).ok
        assert not s.vi.send_done and not r.vi.send_done

    def test_stray_completion_is_never_skipped(self, pair):
        cluster, s, r = pair
        stray = Descriptor.send([])
        s.vi.send_done.appendleft(stray)
        desc = Descriptor.send([DataSegment(s.staging_reg.handle,
                                            s.staging_reg.va, 4)])
        with pytest.raises(ViaError, match="probe"):
            s.post(desc, "probe")
        # the stray was consumed and reported, not passed over
        assert s.vi.send_done[0] is desc


class TestMpiPair:
    def test_protocol_switching(self, pair):
        cluster, s, r = pair
        mpi = MpiPair(s, r)
        assert mpi.protocol_for(100).name == "eager"
        assert mpi.protocol_for(64 * 1024).name == "rendezvous-copy"
        assert "zerocopy" in mpi.protocol_for(1 << 20).name

    def test_sendrecv_and_history(self, pair, rng):
        cluster, s, r = pair
        mpi = MpiPair(s, r)
        src, dst = alloc_buffers(s, r, 256 * 1024)
        data = payload_bytes(rng, 256 * 1024)
        s.task.write(src, data)
        res = mpi.sendrecv(src, dst, 256 * 1024)
        assert res.ok
        assert r.task.read(dst, 1024) == data[:1024]
        assert mpi.history == [res]

    def test_ping_pong(self, pair, rng):
        cluster, s, r = pair
        mpi = MpiPair(s, r)
        src, dst = alloc_buffers(s, r, 2048)
        bsrc, bdst = alloc_buffers(r, s, 2048)
        data = payload_bytes(rng, 2048)
        s.task.write(src, data)
        r.task.write(bsrc, data)
        there, back = mpi.ping_pong(src, dst, 2048, bsrc, bdst)
        assert there.ok and back.ok
        assert len(mpi.history) == 2

    def test_custom_thresholds(self, pair):
        cluster, s, r = pair
        mpi = MpiPair(s, r, eager_threshold=1024,
                      zerocopy_threshold=8192)
        assert mpi.protocol_for(2048).name == "rendezvous-copy"
        assert "zerocopy" in mpi.protocol_for(8192).name
