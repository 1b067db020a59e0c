"""Tests for persistent MPI requests (``MPI_Send_init``/``MPI_Recv_init``)."""

import numpy as np
import pytest

from repro.errors import ViaError
from repro.mpi import MpiWorld


@pytest.fixture(scope="module")
def world():
    return MpiWorld(2, num_frames=2048, eager_threshold=16 * 1024)


@pytest.fixture
def bufs(world):
    out = []
    for r in world.ranks:
        va = r.task.mmap(32)
        r.task.touch_pages(va, 32)
        out.append(va)
    return out


class TestPersistentRequests:
    def test_send_recv_cycle_reuse(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        nbytes = 2048
        psend = r0.send_init(1, 90, bufs[0], nbytes)
        precv = r1.recv_init(0, 90, bufs[1], nbytes)
        for i in range(5):
            r0.task.write(bufs[0], f"iteration-{i}".encode())
            psend.start()
            precv.start()
            st = precv.wait()
            psend.wait()
            assert st.nbytes == nbytes
            assert r1.task.read(bufs[1], 11) == f"iteration-{i}".encode()
        assert psend.starts == 5 and precv.starts == 5
        psend.free()
        precv.free()

    def test_rendezvous_persistent_preregisters(self, world, bufs):
        """Large persistent requests hold a registration so every start
        is a cache hit — zero registration misses in the loop."""
        r0, r1 = world.rank(0), world.rank(1)
        nbytes = 64 * 1024      # > eager threshold
        payload = bytes(np.random.default_rng(0).integers(
            0, 256, nbytes, dtype=np.uint8))
        r0.task.write(bufs[0], payload)
        psend = r0.send_init(1, 91, bufs[0], nbytes)
        precv = r1.recv_init(0, 91, bufs[1], nbytes)
        misses0 = (r0.endpoints[1].cache.stats.misses
                   + r1.endpoints[0].cache.stats.misses)
        for _ in range(4):
            psend.start()
            precv.start()
            precv.wait()
            psend.wait()
        misses = (r0.endpoints[1].cache.stats.misses
                  + r1.endpoints[0].cache.stats.misses - misses0)
        assert misses == 0
        assert r1.task.read(bufs[1], nbytes) == payload
        psend.free()
        precv.free()
        # Pins released after free: pages become evictable.
        frame = r1.task.physical_pages(bufs[1], 1)[0]
        r1.endpoints[0].cache.shed(None)
        assert r1.machine.kernel.pagemap.table.pin_counts[frame] == 0

    def test_double_start_rejected(self, world, bufs):
        r0, r1 = world.rank(0), world.rank(1)
        precv = r1.recv_init(0, 92, bufs[1], 64)
        precv.start()
        with pytest.raises(ViaError):
            precv.start()
        r0.isend(1, 92, bufs[0], 8)
        precv.wait()
        precv.free()

    def test_free_while_active_rejected(self, world, bufs):
        r1 = world.rank(1)
        precv = r1.recv_init(0, 93, bufs[1], 64)
        precv.start()
        with pytest.raises(ViaError):
            precv.free()
        # clean up: satisfy the recv
        world.rank(0).isend(1, 93, bufs[0], 4)
        precv.wait()
        precv.free()
        precv.free()   # idempotent

    def test_wait_before_start_rejected(self, world, bufs):
        r1 = world.rank(1)
        precv = r1.recv_init(0, 94, bufs[1], 64)
        with pytest.raises(ViaError):
            precv.wait()
        precv.free()
