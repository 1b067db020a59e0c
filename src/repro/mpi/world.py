"""The MPI world: rank construction, wiring, and collectives.

Collectives follow the classic algorithms (dissemination barrier,
binomial-tree broadcast and reduction, pairwise exchange for alltoallv),
executed as a deterministic per-rank schedule over real point-to-point
traffic — every hop moves real bytes through the VIA stack and charges
real simulated costs.  The reductions do their arithmetic in numpy,
which the first reduction imports.
"""

from __future__ import annotations

from repro.errors import InvalidArgument
from repro.mpi.rank import MpiRank
from repro.msg.endpoint import Endpoint
from repro.via.machine import Cluster

#: context id used by collective traffic so it can never match user tags
SYSTEM_CONTEXT = 1

#: reduction operator → the numpy ufunc that combines two partials
OPS: dict[str, str] = {
    "sum": "add",
    "max": "maximum",
    "min": "minimum",
    "prod": "multiply",
}


class MpiWorld:
    """N ranks, one per machine, fully connected."""

    def __init__(self, n_ranks: int,
                 num_frames: int = 2048,
                 backend: str = "kiobuf",
                 eager_threshold: int = 16 * 1024,
                 bounce_slots: int = 16,
                 seed: int = 0) -> None:
        if n_ranks < 2:
            raise InvalidArgument("an MPI world needs at least 2 ranks")
        self.eager_threshold = eager_threshold
        self.cluster = Cluster(n_ranks, num_frames=num_frames,
                               backend=backend, seed=seed)
        self.ranks: list[MpiRank] = []
        for i in range(n_ranks):
            machine = self.cluster[i]
            task = machine.spawn(f"rank{i}")
            self.ranks.append(MpiRank(self, i, machine, task))
        # Full mesh: one endpoint (VI) per ordered pair, connected to
        # the peer's mirror endpoint.
        for i in range(n_ranks):
            for j in range(i + 1, n_ranks):
                a = Endpoint(self.cluster[i], task=self.ranks[i].task,
                             bounce_slots=bounce_slots)
                b = Endpoint(self.cluster[j], task=self.ranks[j].task,
                             bounce_slots=bounce_slots)
                self.cluster.fabric.connect(self.cluster[i].nic,
                                            a.vi.vi_id,
                                            self.cluster[j].nic,
                                            b.vi.vi_id)
                self.ranks[i].endpoints[j] = a
                self.ranks[j].endpoints[i] = b
        # Per-rank scratch region for collective staging.
        self._scratch: list[int] = []
        for rank in self.ranks:
            va = rank.task.mmap(8, name="mpi-scratch")
            rank.task.touch_pages(va, 8)
            self._scratch.append(va)

    # -- basic accessors -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ranks)

    def rank(self, i: int) -> MpiRank:
        """The rank object at index ``i``."""
        return self.ranks[i]

    @property
    def clock(self):
        return self.cluster.clock

    def progress_all(self) -> bool:
        """Drive every rank's progress engine once; True if any chunk
        moved anywhere."""
        moved = False
        for rank in self.ranks:
            if rank.progress():
                moved = True
        return moved

    # -- collectives --------------------------------------------------------------

    def _xfer(self, src: int, dst: int, src_va: int, dst_va: int,
              nbytes: int, tag: int) -> None:
        """One scheduled point-to-point hop of a collective."""
        req = self.ranks[src].isend(dst, tag, src_va, nbytes,
                                    context=SYSTEM_CONTEXT)
        self.ranks[dst].recv(src, tag, dst_va, nbytes,
                             context=SYSTEM_CONTEXT)
        req.wait()

    def barrier(self) -> None:
        """Dissemination barrier: ⌈log2 n⌉ rounds of 1-byte tokens."""
        n = self.size
        round_ = 0
        dist = 1
        while dist < n:
            for r in range(n):
                self.ranks[r].task.write(self._scratch[r], b"B")
            for r in range(n):
                self._xfer(r, (r + dist) % n, self._scratch[r],
                           self._scratch[(r + dist) % n] + 1, 1,
                           tag=1000 + round_)
            dist *= 2
            round_ += 1

    def bcast(self, root: int, vas: list[int], nbytes: int) -> None:
        """Binomial-tree broadcast of ``[vas[root], +nbytes)`` into every
        rank's ``vas[r]``."""
        self._check_vas(vas)
        n = self.size
        # Work in root-relative rank space.
        have = {root}
        dist = 1
        while dist < n:
            for rel in range(0, dist):
                src = (root + rel) % n
                dst = (root + rel + dist) % n
                if src in have and rel + dist < n:
                    self._xfer(src, dst, vas[src], vas[dst], nbytes,
                               tag=2000 + dist)
                    have.add(dst)
            dist *= 2

    def reduce(self, root: int, vas: list[int], out_va: int,
               count: int, op: str = "sum",
               dtype: str = "float64") -> None:
        """Binomial-tree reduction of ``count`` elements of ``dtype``
        from every rank's ``vas[r]`` into root's ``out_va``."""
        self._check_vas(vas)
        if op not in OPS:
            raise InvalidArgument(
                f"unknown op {op!r}; choose from {sorted(OPS)}")
        import numpy as np
        combine = getattr(np, OPS[op])
        nbytes = count * np.dtype(dtype).itemsize
        n = self.size
        # Accumulate into a per-rank local copy first (rank buffers are
        # not modified by the collective).
        acc: dict[int, np.ndarray] = {}
        for r in range(n):
            raw = self.ranks[r].task.read(vas[r], nbytes)
            # repro-lint: allow(column-view) -- immutable bytes
            acc[r] = np.frombuffer(raw, dtype=dtype).copy()
        dist = 1
        while dist < n:
            for rel in range(0, n, 2 * dist):
                src_rel = rel + dist
                if src_rel >= n:
                    continue
                dst = (root + rel) % n
                src = (root + src_rel) % n
                # src ships its partial accumulation to dst.
                self.ranks[src].task.write(self._scratch[src],
                                           acc[src].tobytes())
                self._xfer(src, dst, self._scratch[src],
                           self._scratch[dst], nbytes, tag=3000 + dist)
                # repro-lint: allow(column-view) -- immutable bytes
                incoming = np.frombuffer(
                    self.ranks[dst].task.read(self._scratch[dst],
                                              nbytes), dtype=dtype)
                acc[dst] = combine(acc[dst], incoming)
            dist *= 2
        self.ranks[root].task.write(out_va, acc[root].tobytes())

    def allreduce(self, vas: list[int], out_vas: list[int], count: int,
                  op: str = "sum", dtype: str = "float64") -> None:
        """reduce to rank 0, then bcast the result."""
        self._check_vas(vas)
        self._check_vas(out_vas)
        self.reduce(0, vas, out_vas[0], count, op=op, dtype=dtype)
        import numpy as np
        nbytes = count * np.dtype(dtype).itemsize
        self.bcast(0, out_vas, nbytes)

    def gather(self, root: int, src_vas: list[int], dst_va: int,
               nbytes_each: int) -> None:
        """Gather ``nbytes_each`` from every rank into root's ``dst_va``
        in rank order."""
        self._check_vas(src_vas)
        for r in range(self.size):
            if r == root:
                data = self.ranks[root].task.read(src_vas[root],
                                                  nbytes_each)
                self.ranks[root].task.write(dst_va + r * nbytes_each,
                                            data)
            else:
                self._xfer(r, root, src_vas[r],
                           dst_va + r * nbytes_each, nbytes_each,
                           tag=4000 + r)

    def alltoallv(self, src_vas: list[int],
                  send_counts: list[list[int]],
                  dst_vas: list[int]) -> list[list[int]]:
        """Vector alltoall: rank i sends ``send_counts[i][j]`` bytes to
        rank j.  Send slices are packed consecutively per sender;
        receive slices are packed consecutively per receiver in sender
        order.  Returns the receive counts matrix (recv[j][i]).

        Raises :class:`~repro.errors.InvalidArgument`, before any byte
        moves, unless both address lists hold one address per rank and
        ``send_counts`` is an n×n matrix of non-negative ints."""
        self._check_vas(src_vas)
        self._check_vas(dst_vas)
        n = self.size
        if (len(send_counts) != n
                or any(len(row) != n for row in send_counts)
                or not all(isinstance(c, int) and c >= 0
                           for row in send_counts for c in row)):
            raise InvalidArgument(
                f"send_counts must be a {n}x{n} matrix of non-negative "
                f"ints, got {send_counts!r}")
        recv_counts = [[send_counts[i][j] for i in range(n)]
                       for j in range(n)]
        for i in range(n):
            src_off = src_vas[i]
            for j in range(n):
                nbytes = send_counts[i][j]
                dst_off = dst_vas[j] + sum(recv_counts[j][:i])
                if nbytes:
                    if i == j:
                        data = self.ranks[i].task.read(src_off, nbytes)
                        self.ranks[i].task.write(dst_off, data)
                    else:
                        self._xfer(i, j, src_off, dst_off, nbytes,
                                   tag=7000 + i * n + j)
                src_off += nbytes
        return recv_counts

    # -- internals --------------------------------------------------------------

    def _check_vas(self, vas: list[int]) -> None:
        if len(vas) != self.size:
            raise InvalidArgument(
                f"need one address per rank ({self.size}), "
                f"got {len(vas)}")
