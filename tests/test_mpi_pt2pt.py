"""Tests for MPI point-to-point: matching, wildcards, eager/rendezvous,
unexpected messages, requests."""

import numpy as np
import pytest

from repro.errors import ViaError
from repro.hw.physmem import PAGE_SIZE
from repro.mpi import ANY_SOURCE, ANY_TAG, MpiWorld


@pytest.fixture(scope="module")
def world():
    return MpiWorld(3, num_frames=2048, eager_threshold=16 * 1024)


@pytest.fixture
def bufs(world):
    """Fresh 32-page buffers on each rank."""
    out = []
    for r in world.ranks:
        va = r.task.mmap(32)
        r.task.touch_pages(va, 32)
        out.append(va)
    return out


def rand(n: int, seed: int = 0) -> bytes:
    return bytes(np.random.default_rng(seed).integers(0, 256, n,
                                                      dtype=np.uint8))


class TestEager:
    def test_roundtrip(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        r0.task.write(bufs[0], b"eager payload")
        req = r0.isend(1, 3, bufs[0], 13)
        st = r1.recv(0, 3, bufs[1], PAGE_SIZE)
        assert st.nbytes == 13 and st.source == 0 and st.tag == 3
        assert r1.task.read(bufs[1], 13) == b"eager payload"
        assert req.wait().nbytes == 13

    def test_multi_chunk_eager(self, world, bufs):
        """A message larger than one chunk but below the rendezvous
        threshold must reassemble."""
        r0, r1 = world.rank(0), world.rank(1)
        data = rand(3 * PAGE_SIZE, seed=1)   # 12 KiB < 16 KiB threshold
        r0.task.write(bufs[0], data)
        r0.isend(1, 9, bufs[0], len(data))
        r1.recv(0, 9, bufs[1], len(data))
        assert r1.task.read(bufs[1], len(data)) == data
        assert r0.eager_sent >= 1

    def test_zero_length_message(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        r0.isend(1, 11, bufs[0], 0)
        st = r1.recv(0, 11, bufs[1], 16)
        assert st.nbytes == 0

    def test_unexpected_message_buffered(self, world, bufs):
        """Send before the receive is posted: buffered, then matched."""
        r0, r1 = world.rank(0), world.rank(1)
        r0.task.write(bufs[0], b"early bird")
        r0.isend(1, 21, bufs[0], 10)
        assert len(r1._unexpected) >= 1
        st = r1.recv(0, 21, bufs[1], 64)
        assert st.nbytes == 10
        assert r1.task.read(bufs[1], 10) == b"early bird"
        assert len(r1._unexpected) == 0

    def test_ordering_within_pair_and_tag(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        for i in range(4):
            r0.task.write(bufs[0] + i * 16, f"msg{i}".encode())
            r0.isend(1, 30, bufs[0] + i * 16, 4)
        for i in range(4):
            r1.recv(0, 30, bufs[1], 16)
            assert r1.task.read(bufs[1], 4) == f"msg{i}".encode()

    def test_truncation_rejected(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        r0.isend(1, 40, bufs[0], 100)
        with pytest.raises(ViaError):
            r1.recv(0, 40, bufs[1], 10)


class TestRendezvous:
    def test_large_message_zero_copy(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        data = rand(96 * 1024, seed=2)
        r0.task.write(bufs[0], data)
        copies0 = (r0.endpoints[1].copies_bytes
                   + r1.endpoints[0].copies_bytes)
        req = r0.isend(1, 50, bufs[0], len(data))
        r1.recv(0, 50, bufs[1], len(data))
        req.wait()
        assert r1.task.read(bufs[1], len(data)) == data
        # Only control chunks were copied, not the payload.
        copied = (r0.endpoints[1].copies_bytes
                  + r1.endpoints[0].copies_bytes - copies0)
        assert copied < 2048
        assert r0.rendezvous_sent >= 1

    def test_rts_before_recv_posted(self, world, bufs):
        """RTS arrives unexpected; the later recv grants it."""
        r0, r1 = world.rank(0), world.rank(1)
        data = rand(64 * 1024, seed=3)
        r0.task.write(bufs[0], data)
        req = r0.isend(1, 51, bufs[0], len(data))
        assert not req.done                  # waiting for the grant
        assert len(r1._unexpected) >= 1
        r1.recv(0, 51, bufs[1], len(data))
        assert req.done
        assert r1.task.read(bufs[1], len(data)) == data

    def test_recv_posted_before_rts(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        data = rand(64 * 1024, seed=4)
        r0.task.write(bufs[0], data)
        rreq = r1.irecv(0, 52, bufs[1], len(data))
        sreq = r0.isend(1, 52, bufs[0], len(data))
        rreq.wait()
        sreq.wait()
        assert r1.task.read(bufs[1], len(data)) == data

    def test_rendezvous_truncation_rejected(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        r0.isend(1, 53, bufs[0], 64 * 1024)
        with pytest.raises(ViaError):
            r1.recv(0, 53, bufs[1], 1024)


class TestWildcards:
    def test_any_source(self, world, bufs):
        r0, r1, r2 = world.ranks
        r0.task.write(bufs[0], b"from-zero")
        r2.task.write(bufs[2], b"from-two!")
        r0.isend(1, 60, bufs[0], 9)
        r2.isend(1, 60, bufs[2], 9)
        sources = set()
        for _ in range(2):
            st = r1.recv(ANY_SOURCE, 60, bufs[1], 64)
            sources.add(st.source)
        assert sources == {0, 2}

    def test_any_tag(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        r0.isend(1, 61, bufs[0], 4)
        st = r1.recv(0, ANY_TAG, bufs[1], 64)
        assert st.tag == 61

    def test_tag_selectivity(self, world, bufs):
        """A recv for tag B must skip a buffered tag-A message."""
        r0, r1 = world.rank(0), world.rank(1)
        r0.task.write(bufs[0], b"AAAA")
        r0.isend(1, 70, bufs[0], 4)
        r0.task.write(bufs[0] + 64, b"BBBB")
        r0.isend(1, 71, bufs[0] + 64, 4)
        st = r1.recv(0, 71, bufs[1], 64)
        assert st.tag == 71
        assert r1.task.read(bufs[1], 4) == b"BBBB"
        st = r1.recv(0, 70, bufs[1], 64)
        assert r1.task.read(bufs[1], 4) == b"AAAA"
        del st


class TestRequests:
    def test_irecv_test_polls(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        req = r1.irecv(0, 80, bufs[1], 64)
        assert not req.test()
        r0.isend(1, 80, bufs[0], 8)
        assert req.test()
        assert req.status.nbytes == 8

    def test_wait_detects_deadlock(self, world, bufs):
        r1 = world.rank(1)
        req = r1.irecv(0, 9999, bufs[1], 64)
        with pytest.raises(ViaError):
            req.wait()
        r1._posted.remove(req)   # clean up for other tests

    def test_send_request_completes(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        req = r0.isend(1, 81, bufs[0], 16)
        assert req.done      # eager completes locally
        r1.recv(0, 81, bufs[1], 64)


class TestCompletionReaping:
    def test_ping_pong_leaves_no_completions(self):
        """Eager and rendezvous sends both reap what they post."""
        world = MpiWorld(2, num_frames=2048, eager_threshold=16 * 1024)
        vas = []
        for r in world.ranks:
            va = r.task.mmap(8)
            r.task.touch_pages(va, 8)
            vas.append(va)
        r0, r1 = world.rank(0), world.rank(1)
        for size in (64, 4 * PAGE_SIZE, 8 * PAGE_SIZE):   # 32 KiB > 16 KiB
            r0.isend(1, 5, vas[0], size)
            r1.recv(0, 5, vas[1], size)
            r1.isend(0, 6, vas[1], size)
            r0.recv(1, 6, vas[0], size)
        assert r0.eager_sent and r0.rendezvous_sent
        for rank in world.ranks:
            for ep in rank.endpoints.values():
                assert not ep.vi.send_done


class TestValidation:
    def test_self_send_rejected(self, world, bufs):
        with pytest.raises(ViaError):
            world.rank(0).isend(0, 1, bufs[0], 4)

    def test_bad_tag_rejected(self, world, bufs):
        with pytest.raises(ViaError):
            world.rank(0).isend(1, -5, bufs[0], 4)

    def test_unknown_peer_rejected(self, world, bufs):
        with pytest.raises(ViaError):
            world.rank(0).isend(7, 1, bufs[0], 4)
