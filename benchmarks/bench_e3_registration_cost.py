"""E3 — registration cost vs region size, per locking mechanism.

Regenerates the performance evaluation the paper announces for its
proposal: simulated register+deregister time as a function of region
size, with pages resident ("hot") and swapped out ("cold").

Expected shape:

* every pinning mechanism is **linear in pages** (per-page walk/pin/TPT
  work on top of a fixed syscall overhead);
* odp registers in **O(1)**: it pins and translates nothing until the
  NIC first touches a page, so its hot cycle costs the same at every
  size;
* kiobuf ≈ refcount + pin bookkeeping, within a small constant of
  mlock — i.e. reliability costs roughly nothing extra;
* **cold registrations are orders of magnitude slower** — dominated by
  the 4 ms/page swap-ins — which is the quantitative argument for
  keeping buffers registered (the registration cache).
"""

import pytest

from repro.bench.harness import print_series
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.kernel import Kernel
from repro.via.locking import BACKENDS, make_backend

SIZES = [1, 4, 16, 64, 256]


def cycle_cost_ns(backend_name: str, npages: int, cold: bool) -> int:
    """Simulated ns for one register+deregister of ``npages``."""
    kernel = Kernel(num_frames=2048, swap_slots=8192)
    t = kernel.create_task()
    va = t.mmap(npages)
    t.touch_pages(va, npages)
    if cold:
        # Push the buffer out so registration must fault it back in.
        while t.resident_pages() > 0:
            if paging.swap_out(kernel, kernel.pagemap.num_frames) == 0:
                break
        assert t.resident_pages() == 0
    be = make_backend(backend_name)
    with kernel.clock.measure() as span:
        res = be.lock(kernel, t, va, npages * PAGE_SIZE)
        be.unlock(kernel, res.cookie)
    return span.elapsed_ns


@pytest.fixture(scope="module")
def hot_series():
    return {
        name: [(n, cycle_cost_ns(name, n, cold=False) / 1000.0)
               for n in SIZES]
        for name in sorted(BACKENDS)
    }


@pytest.fixture(scope="module")
def cold_series():
    return {
        name: [(n, cycle_cost_ns(name, n, cold=True) / 1000.0)
               for n in SIZES]
        for name in ("kiobuf", "mlock")
    }


def test_e3_hot_registration_cost(hot_series, report):
    if report("E3: registration cost vs size"):
        print_series("E3a — register+deregister, pages resident",
                     "pages", hot_series, ylabel="simulated us")
    for name, points in hot_series.items():
        costs = dict(points)
        if name == "odp":
            # Pin-on-fault: registration does no per-page work.
            assert costs[256] == costs[1], "odp registration not O(1)"
            continue
        # Linear in pages: cost(256)/cost(64) ≈ 4 within slack.
        assert 2.5 < costs[256] / costs[64] < 5.5, f"{name} not linear"
    # Reliability is nearly free: kiobuf within 2x of the broken refcount.
    k = dict(hot_series["kiobuf"])[256]
    r = dict(hot_series["refcount"])[256]
    assert k < 2.0 * r


def test_e3_cold_registration_cost(hot_series, cold_series, report):
    if report("E3b: cold (swapped-out) registration cost"):
        print_series("E3b — register+deregister, pages in swap",
                     "pages", cold_series, ylabel="simulated us")
    # Cold is dominated by page-ins: >100x hot at 64 pages.
    hot = dict(hot_series["kiobuf"])[64]
    cold = dict(cold_series["kiobuf"])[64]
    assert cold > 100 * hot


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_e3_register_cycle(benchmark, backend):
    """Host-time registration cycle of a 64-page region."""
    benchmark(lambda: cycle_cost_ns(backend, 64, cold=False))
