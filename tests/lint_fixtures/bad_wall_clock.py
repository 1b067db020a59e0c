"""Fixture: nondeterminism of every flavour (6 findings)."""

import datetime
import random
import time as walltime
from time import monotonic

import numpy as np  # repro-lint: allow(eager-numpy)


def stamp():
    a = walltime.time()                     # <- finding (aliased import)
    b = monotonic()                         # <- finding (from-import)
    c = datetime.datetime.now()             # <- finding
    return a, b, c


def dice():
    x = random.random()                     # <- finding
    rng = np.random.default_rng()           # <- finding (bypasses sim.rng)
    return x, rng, random.randint(0, 6)     # <- finding
