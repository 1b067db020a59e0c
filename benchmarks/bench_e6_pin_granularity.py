"""E6 — ablation: per-page pin counters vs a single lock bit.

The design choice DESIGN.md calls out: the kiobuf reconstruction keeps a
per-page *pin counter*, while the Giganet-style backend (and any scheme
built on the single ``PG_locked`` bit) cannot express overlapping
owners.  This bench counts wrongly-unlocked pages in two scenarios:

1. **overlapping registrations** — two regions sharing pages; the
   earlier deregistration must not unprotect the shared pages;
2. **kernel I/O collision** — the kernel locks a page for its own I/O
   while it is registered; deregistration must not strip that lock.

Expected: pageflags wrongly unlocks every shared/kernel-locked page;
kiobuf never does.
"""

import pytest

from repro.bench.harness import print_table
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.flags import PG_LOCKED, PG_RESERVED
from repro.kernel.kernel import Kernel
from repro.via.locking import make_backend

PAGES = 16
OVERLAP = 8


def overlap_scenario(backend_name: str) -> tuple[int, int]:
    """Two registrations overlapping on OVERLAP pages; deregister the
    first; returns (shared_pages, wrongly_unprotected)."""
    kernel = Kernel(num_frames=256)
    t = kernel.create_task()
    va = t.mmap(PAGES + OVERLAP)
    be = make_backend(backend_name)
    r1 = be.lock(kernel, t, va, PAGES * PAGE_SIZE)
    r2 = be.lock(kernel, t, va + (PAGES - OVERLAP) * PAGE_SIZE,
                 PAGES * PAGE_SIZE)
    shared = set(r1.frames) & set(r2.frames)
    assert len(shared) == OVERLAP
    be.unlock(kernel, r1.cookie)
    table = kernel.pagemap.table
    wrongly = sum(
        1 for frame in shared
        if not (table.flags[frame] & (PG_LOCKED | PG_RESERVED)
                or table.pin_counts[frame] > 0))
    be.unlock(kernel, r2.cookie)
    return len(shared), wrongly


def kernel_io_scenario(backend_name: str) -> tuple[int, int]:
    """Kernel locks every registered page for I/O; then deregistration
    happens; returns (locked_pages, kernel_locks_lost)."""
    kernel = Kernel(num_frames=256)
    t = kernel.create_task()
    va = t.mmap(PAGES)
    be = make_backend(backend_name)
    res = be.lock(kernel, t, va, PAGES * PAGE_SIZE)
    for frame in res.frames:
        kernel.lock_page(frame)       # kernel-held PG_locked
    be.unlock(kernel, res.cookie)
    lost = sum(1 for frame in res.frames
               if not kernel.pagemap.table.flags[frame] & PG_LOCKED)
    return len(res.frames), lost


@pytest.fixture(scope="module")
def rows():
    out = []
    for name in ("pageflags", "kiobuf"):
        shared, wrong = overlap_scenario(name)
        locked, lost = kernel_io_scenario(name)
        out.append([name, f"{wrong}/{shared}", f"{lost}/{locked}"])
    return out


def test_e6_pin_granularity(rows, report):
    if report("E6: pin-bookkeeping granularity ablation"):
        print_table(
            "E6 — wrongly-unprotected pages after first deregistration",
            ["backend", "overlap: unprotected/shared",
             "kernel I/O: locks lost/held"],
            rows)
    by_name = {r[0]: r for r in rows}
    assert by_name["pageflags"][1] == f"{OVERLAP}/{OVERLAP}"
    assert by_name["pageflags"][2] == f"{PAGES}/{PAGES}"
    assert by_name["kiobuf"][1] == f"0/{OVERLAP}"
    assert by_name["kiobuf"][2] == f"0/{PAGES}"


@pytest.mark.parametrize("backend", ["pageflags", "kiobuf"])
def test_e6_overlap_cycle(benchmark, backend):
    """Host time of the overlapping-registration scenario."""
    benchmark(lambda: overlap_scenario(backend))
