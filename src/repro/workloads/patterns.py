"""Message-traffic patterns for the benchmarks.

:func:`buffer_reuse_trace` is a synthetic MPI application trace: a pool
of buffers, some reused hot (persistent-communication style), some
cold, to drive the registration cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.physmem import PAGE_SIZE
from repro.sim.rng import make_rng


@dataclass(frozen=True)
class TraceOp:
    """One operation of a buffer-reuse trace."""

    buffer_index: int
    offset: int       #: byte offset inside the buffer
    nbytes: int


def buffer_reuse_trace(num_buffers: int = 8,
                       buffer_pages: int = 16,
                       operations: int = 200,
                       hot_fraction: float = 0.25,
                       hot_probability: float = 0.8,
                       seed: int = 0) -> list[TraceOp]:
    """A synthetic application trace over a pool of buffers.

    ``hot_fraction`` of the buffers receive ``hot_probability`` of the
    traffic — the locality a registration cache exploits.  Sizes and
    offsets are page-aligned sub-ranges of the chosen buffer.
    """
    rng = make_rng(seed)
    n_hot = max(1, int(num_buffers * hot_fraction))
    ops: list[TraceOp] = []
    for _ in range(operations):
        if rng.random() < hot_probability:
            buf = int(rng.integers(0, n_hot))
        else:
            buf = int(rng.integers(n_hot, num_buffers))
        pages = int(rng.integers(1, buffer_pages + 1))
        start_page = int(rng.integers(0, buffer_pages - pages + 1))
        ops.append(TraceOp(buffer_index=buf,
                           offset=start_page * PAGE_SIZE,
                           nbytes=pages * PAGE_SIZE))
    return ops
