"""E10 — sensitivity of the Sec. 3.1 failure to memory pressure.

The paper reports the refcount failure happened "in most cases" — the
fraction of registered pages that relocate depends on how hard reclaim
has to work.  This bench sweeps the allocator's footprint relative to
installed RAM and reports, per pressure level, how many registered
pages the refcount backend loses (kiobuf as control).

Expected shape: a sharp threshold.  While the allocator fits in (or
only modestly exceeds) RAM, the kernel's ``swap_cnt`` victim heuristic
drains the allocator itself and the small locktest process is never
chosen; once pressure is sustained enough to exhaust the hog's steal
budget, the heuristic reaches the locktest process and the refcount
backend loses *all* of its pages at once — the paper's "in most cases"
is the supra-threshold regime.  kiobuf loses nothing at any pressure.
"""

import pytest

from repro.bench.harness import print_table
from repro.core.locktest import LocktestExperiment

FACTORS = [0.25, 0.75, 1.25, 1.5, 1.75, 2.0, 2.5]
BUFFER_PAGES = 48
NUM_FRAMES = 512


def relocated_fraction(backend: str, factor: float) -> float:
    r = LocktestExperiment(backend, buffer_pages=BUFFER_PAGES,
                           num_frames=NUM_FRAMES,
                           allocator_factor=factor).run()
    return r.pages_relocated / r.npages


@pytest.fixture(scope="module")
def sweep_rows():
    rows = []
    for factor in FACTORS:
        ref = relocated_fraction("refcount", factor)
        kio = relocated_fraction("kiobuf", factor)
        rows.append([factor, f"{ref:.0%}", f"{kio:.0%}"])
    return rows


def test_e10_pressure_sweep(sweep_rows, report):
    if report("E10: failure vs memory pressure"):
        print_table(
            f"E10 — registered pages relocated vs allocator footprint "
            f"({BUFFER_PAGES}-page buffer, {NUM_FRAMES}-frame RAM)",
            ["allocator / RAM", "refcount lost", "kiobuf lost"],
            sweep_rows)
    by_factor = {row[0]: row for row in sweep_rows}
    # No pressure → no loss even for the broken backend.
    assert by_factor[0.25][1] == "0%"
    # Sustained over-commit → the refcount backend loses everything.
    assert by_factor[2.0][1] == "100%"
    assert by_factor[2.5][1] == "100%"
    # The loss is monotone non-decreasing in pressure.
    fracs = [float(row[1].rstrip("%")) for row in sweep_rows]
    assert all(a <= b + 1e-9 for a, b in zip(fracs, fracs[1:]))
    # Control: kiobuf never loses a page at any pressure.
    assert all(row[2] == "0%" for row in sweep_rows)


def test_e10_single_point(benchmark):
    """Host time of one sweep point."""
    benchmark(lambda: relocated_fraction("refcount", 1.5))
