"""Deterministic RNG helpers.

Everything stochastic in the simulator (fault plans' wire and DMA
rolls, the soak's tenant churn, the buffer-reuse traces) draws
from generators created here, so a seed fully determines an experiment
run.  numpy is imported by the first :func:`make_rng` call, not with
this module: a run that draws nothing never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """Return a numpy Generator seeded deterministically.

    ``None`` still produces a *fixed* default seed: the simulator refuses
    to be accidentally nondeterministic; callers wanting entropy must ask
    for it explicitly by passing a varying seed.
    """
    import numpy as np
    return np.random.default_rng(0 if seed is None else seed)
