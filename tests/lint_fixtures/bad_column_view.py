"""Fixture: numpy views taken outside the frame table (3 findings)."""

import numpy  # repro-lint: allow(eager-numpy)
import numpy as np  # repro-lint: allow(eager-numpy)
from numpy import frombuffer  # repro-lint: allow(eager-numpy)


def free_counts(pagemap):
    free = np.frombuffer(pagemap._free, dtype=np.int64)       # <- finding
    counts = numpy.frombuffer(pagemap.table.counts, "q")       # <- finding
    return counts[free]


def pins(table):
    return frombuffer(table.pin_counts, dtype="q").sum()      # <- finding
