"""Tests for the MPI collectives (barrier, bcast, reduce, allreduce,
gather, alltoallv)."""

import numpy as np
import pytest

from repro.errors import InvalidArgument
from repro.hw.physmem import PAGE_SIZE
from repro.mpi import MpiWorld


@pytest.fixture(scope="module", params=[2, 3, 4])
def world(request):
    return MpiWorld(request.param, num_frames=2048)


@pytest.fixture
def vas(world):
    out = []
    for r in world.ranks:
        va = r.task.mmap(16)
        r.task.touch_pages(va, 16)
        out.append(va)
    return out


@pytest.fixture
def vas2(world):
    out = []
    for r in world.ranks:
        va = r.task.mmap(16)
        r.task.touch_pages(va, 16)
        out.append(va)
    return out


class TestBarrier:
    def test_completes(self, world):
        world.barrier()   # must simply terminate
        world.barrier()


class TestBcast:
    @pytest.mark.parametrize("root", [0, 1])
    def test_all_ranks_receive(self, world, vas, root):
        payload = f"broadcast from {root}".encode()
        world.ranks[root].task.write(vas[root], payload)
        world.bcast(root, vas, len(payload))
        for r, va in zip(world.ranks, vas):
            assert r.task.read(va, len(payload)) == payload

    def test_large_bcast_uses_rendezvous(self, world, vas):
        data = bytes(np.random.default_rng(0).integers(
            0, 256, 48 * 1024, dtype=np.uint8))
        world.ranks[0].task.write(vas[0], data)
        world.bcast(0, vas, len(data))
        for r, va in zip(world.ranks, vas):
            assert r.task.read(va, len(data)) == data


class TestReduce:
    @pytest.mark.parametrize("op,expected_fn", [
        ("sum", lambda cols: cols.sum(axis=0)),
        ("max", lambda cols: cols.max(axis=0)),
        ("min", lambda cols: cols.min(axis=0)),
        ("prod", lambda cols: cols.prod(axis=0)),
    ])
    def test_ops(self, world, vas, vas2, op, expected_fn):
        count = 16
        rows = []
        for i, (r, va) in enumerate(zip(world.ranks, vas)):
            row = np.arange(1, count + 1, dtype=np.float64) * (i + 1)
            r.task.write(va, row.tobytes())
            rows.append(row)
        world.reduce(0, vas, vas2[0], count, op=op)
        got = np.frombuffer(world.ranks[0].task.read(vas2[0], count * 8),
                            dtype=np.float64)
        np.testing.assert_allclose(got, expected_fn(np.vstack(rows)))

    def test_unknown_op(self, world, vas, vas2):
        with pytest.raises(InvalidArgument):
            world.reduce(0, vas, vas2[0], 4, op="xor")

    def test_inputs_unmodified(self, world, vas, vas2):
        count = 8
        for i, (r, va) in enumerate(zip(world.ranks, vas)):
            r.task.write(va, np.full(count, i + 1.0).tobytes())
        world.reduce(0, vas, vas2[0], count)
        for i, (r, va) in enumerate(zip(world.ranks, vas)):
            got = np.frombuffer(r.task.read(va, count * 8))
            np.testing.assert_allclose(got, i + 1.0)


class TestAllreduce:
    def test_every_rank_gets_result(self, world, vas, vas2):
        count = 8
        for i, (r, va) in enumerate(zip(world.ranks, vas)):
            r.task.write(va, np.full(count, float(i + 1)).tobytes())
        world.allreduce(vas, vas2, count, op="sum")
        expected = sum(range(1, world.size + 1))
        for r, va in zip(world.ranks, vas2):
            got = np.frombuffer(r.task.read(va, count * 8))
            np.testing.assert_allclose(got, expected)


class TestGatherScatter:
    def test_gather(self, world, vas):
        n = world.size
        each = 64
        for i, (r, va) in enumerate(zip(world.ranks, vas)):
            r.task.write(va, bytes([i]) * each)
        dst = world.ranks[0].task.mmap(4)
        world.ranks[0].task.touch_pages(dst, 4)
        world.gather(0, vas, dst, each)
        blob = world.ranks[0].task.read(dst, n * each)
        for i in range(n):
            assert blob[i * each:(i + 1) * each] == bytes([i]) * each

    def test_vas_length_checked(self, world, vas):
        with pytest.raises(InvalidArgument):
            world.gather(0, vas[:-1] if world.size > 1 else [], 0, 8)


class TestAlltoall:
    def test_alltoall(self, world, vas, vas2):
        n = world.size
        each = 32
        for i, (r, va) in enumerate(zip(world.ranks, vas)):
            for j in range(n):
                r.task.write(va + j * each, bytes([i * 16 + j]) * each)
        world.alltoallv(vas, [[each] * n for _ in range(n)], vas2)
        for j, (r, va) in enumerate(zip(world.ranks, vas2)):
            for i in range(n):
                assert r.task.read(va + i * each, each) == \
                    bytes([i * 16 + j]) * each

    def test_alltoallv_variable_counts(self, world, vas, vas2):
        n = world.size
        counts = [[(i + j) % 3 * 16 for j in range(n)] for i in range(n)]
        for i, (r, va) in enumerate(zip(world.ranks, vas)):
            offset = 0
            for j in range(n):
                r.task.write(va + offset,
                             bytes([i * 16 + j]) * counts[i][j])
                offset += counts[i][j]
        recv_counts = world.alltoallv(vas, counts, vas2)
        for j, (r, va) in enumerate(zip(world.ranks, vas2)):
            offset = 0
            for i in range(n):
                nbytes = recv_counts[j][i]
                assert nbytes == counts[i][j]
                assert r.task.read(va + offset, nbytes) == \
                    bytes([i * 16 + j]) * nbytes
                offset += nbytes


    @pytest.mark.parametrize("bad", [
        "short_src", "short_dst", "short_counts", "ragged_counts",
        "negative_count", "float_count"])
    def test_alltoallv_rejects_bad_input_before_moving_bytes(
            self, world, vas, vas2, bad):
        n = world.size
        counts = [[16] * n for _ in range(n)]
        src, dst = list(vas), list(vas2)
        if bad == "short_src":
            src = src[:-1]
        elif bad == "short_dst":
            dst = dst[:-1]
        elif bad == "short_counts":
            counts = counts[:-1]
        elif bad == "ragged_counts":
            counts[-1] = counts[-1][:-1]
        elif bad == "negative_count":
            counts[0][-1] = -16
        else:
            counts[-1][0] = 16.0
        for r, va in zip(world.ranks, vas2):
            r.task.write(va, bytes(16 * n))
        before_ns = world.clock.now_ns
        with pytest.raises(InvalidArgument):
            world.alltoallv(src, counts, dst)
        assert world.clock.now_ns == before_ns
        for r, va in zip(world.ranks, vas2):
            assert r.task.read(va, 16 * n) == bytes(16 * n)


class TestWorldConstruction:
    def test_minimum_size(self):
        with pytest.raises(InvalidArgument):
            MpiWorld(1)

    def test_full_mesh(self, world):
        for i, rank in enumerate(world.ranks):
            assert set(rank.endpoints) == \
                set(range(world.size)) - {i}

    def test_collective_traffic_isolated_from_user_tags(self, world,
                                                        vas):
        """Collective messages use the system context, so a wildcard
        user receive never steals them."""
        r0, r1 = world.rank(0), world.rank(1)
        from repro.mpi import ANY_SOURCE, ANY_TAG
        req = r1.irecv(ANY_SOURCE, ANY_TAG, vas[1], PAGE_SIZE)
        world.barrier()
        assert not req.done   # barrier tokens did not match it
        r0.isend(1, 5, vas[0], 4)
        assert req.test()
        assert req.status.tag == 5
