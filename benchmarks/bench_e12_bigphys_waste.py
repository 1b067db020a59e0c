"""E12 — ablation: static reservation (Bigphysarea) vs dynamic pinning
(kiobuf).

The collection's complaint about the pre-VIA approach: reserving
communication memory at boot "'wastes' a part of memory if it is not
really exported later".  This bench measures, for a machine with a
fixed RAM size, how large an application working set runs **without
swapping** as the communication-buffer demand varies:

* **bigphys** — a boot-time reservation sized for the *worst-case*
  communication demand: the app loses that many frames even when the
  actual demand is small;
* **kiobuf** — buffers are pinned dynamically: only the *actual*
  demand is subtracted from the app's memory.

Expected: with kiobuf the swap-free working set shrinks only with the
actual demand; with bigphys it is flat at (RAM − worst case) no matter
how little is used.
"""

import pytest

from repro.bench.harness import print_table
from repro.hw.physmem import PAGE_SIZE
from repro.kernel.bigphys import BigPhysArea
from repro.kernel.kernel import Kernel
from repro.via.locking import BigphysLocking, make_backend

RAM = 256              #: frames
WORST_CASE = 96        #: frames the bigphys reservation must cover
DEMANDS = [8, 32, 64, 96]


def max_swapfree_appset(comm_demand: int, static: bool) -> int:
    """Largest app working set (pages) touched without any swap-out."""
    kernel = Kernel(num_frames=RAM, swap_slots=4096, min_free_pages=4)
    comm_task = kernel.create_task(name="comm")
    if static:
        area = BigPhysArea(kernel, WORST_CASE)
        va = area.alloc(comm_task, comm_demand)
        # The reservation is the pin: registering only walks the PTEs.
        BigphysLocking(area).lock(kernel, comm_task, va,
                                  comm_demand * PAGE_SIZE)
    else:
        va = comm_task.mmap(comm_demand)
        comm_task.touch_pages(va, comm_demand)
        be = make_backend("kiobuf")
        be.lock(kernel, comm_task, va, comm_demand * PAGE_SIZE)
    app = kernel.create_task(name="app")
    app_va = app.mmap(RAM)
    touched = 0
    for i in range(RAM):
        app.write(app_va + i * PAGE_SIZE, b"A")
        if kernel.swap.writes > 0:
            break
        touched += 1
    return touched


@pytest.fixture(scope="module")
def rows():
    out = []
    for demand in DEMANDS:
        static = max_swapfree_appset(demand, static=True)
        dynamic = max_swapfree_appset(demand, static=False)
        out.append([demand, static, dynamic, dynamic - static])
    return out


def test_e12_waste_table(rows, report):
    if report("E12: static reservation vs dynamic pinning"):
        print_table(
            f"E12 — swap-free app working set (pages) on {RAM}-frame "
            f"RAM, bigphys reserved for worst case {WORST_CASE}",
            ["comm demand", "bigphys app set", "kiobuf app set",
             "kiobuf advantage"],
            rows)
    by_demand = {r[0]: r for r in rows}
    # Static reservation: app set flat regardless of actual demand.
    static_sets = [r[1] for r in rows]
    assert max(static_sets) - min(static_sets) <= 2
    # Dynamic: at low demand the app gets (worst case − demand) more.
    assert by_demand[8][3] >= (WORST_CASE - 8) - 12
    # At worst-case demand the two converge.
    assert abs(by_demand[WORST_CASE][3]) <= 12


def test_e12_point(benchmark):
    """Host time of one measurement point."""
    benchmark(lambda: max_swapfree_appset(32, static=False))
