"""Fixture: numpy loaded on first use (0 findings)."""

from __future__ import annotations

import typing
from typing import TYPE_CHECKING

import numbers                                  # a lookalike name

if TYPE_CHECKING:
    import numpy as np
if typing.TYPE_CHECKING:
    from numpy.typing import NDArray


def total(values) -> np.ndarray:
    import numpy as np
    return np.add.reduce(values)


class Pool:
    def column(self) -> NDArray:
        from numpy import zeros
        return zeros(4)


def is_number(value) -> bool:
    return isinstance(value, numbers.Number)


# repro-lint: allow(eager-numpy) -- a script that always needs numpy
import numpy
