"""Fixture: numpy imported with the module (6 findings)."""

import numpy                                    # <- finding
import os, numpy as np                          # <- finding
from numpy.random import default_rng            # <- finding
from typing import TYPE_CHECKING

try:
    import numpy.typing as npt                  # <- finding
except ImportError:
    npt = None

if TYPE_CHECKING:
    pass
else:
    from numpy import ndarray                   # <- finding


class Reducer:
    from numpy import add                       # <- finding (runs at import)

    def fold(self, values):
        return self.add.reduce(values)
