"""E20 — pin-at-register vs pin-on-fault (ODP) under the E10 pressure
sweep.

A/B of the two ends of the locking design space on identical machines:
``kiobuf`` pays for the whole buffer at registration and holds one pin
per registered page forever; ``odp`` registers in O(1) with every TPT
entry invalid, pays on the first DMA touch (suspend → fault service →
resume), and pins only the pages a DMA actually used — which reclaim
may take back again under pressure.

Per pressure level the table reports, for each backend: registration
latency, first-touch DMA latency (translating one message's worth of
the buffer through the NIC), fault services run, and the resident-pin
footprint after the first touch.  The acceptance criteria are the
ISSUE's: ODP registers faster than kiobuf, pins strictly fewer pages,
and the sweep ends with zero leaked pins and zero orphaned frames.

Scaling knobs (CI smoke): ``REPRO_E20_FACTORS`` (comma-separated
allocator/RAM ratios), ``REPRO_E20_PAGES``, ``REPRO_E20_FRAMES``,
``REPRO_E20_TOUCH``.
"""

import os

import pytest

from repro.bench.harness import fmt_ns, print_table
from repro.core.audit import (
    audit_kernel_invariants, audit_pin_leaks, audit_tpt_consistency,
)
from repro.hw.physmem import PAGE_SIZE
from repro.via.machine import Machine

FACTORS = [float(f) for f in os.environ.get(
    "REPRO_E20_FACTORS", "0.25,0.75,1.25,1.75,2.0,2.5").split(",")]
BUFFER_PAGES = int(os.environ.get("REPRO_E20_PAGES", "48"))
NUM_FRAMES = int(os.environ.get("REPRO_E20_FRAMES", "512"))
#: pages one "message" DMA-touches — the working set the ODP backend
#: actually ends up pinning
TOUCH_PAGES = int(os.environ.get("REPRO_E20_TOUCH", "8"))


def run_point(backend: str, factor: float, seed: int = 0) -> dict:
    """One sweep point: register under pressure, first-touch a message,
    audit, and report the observables."""
    m = Machine(name=f"e20-{backend}", backend=backend,
                num_frames=NUM_FRAMES, swap_slots=NUM_FRAMES * 8)
    app = m.spawn("app")
    ua = m.user_agent(app)
    va = app.mmap(BUFFER_PAGES, name="buffer")
    for i in range(BUFFER_PAGES):
        app.write(va + i * PAGE_SIZE, f"page-{i:04d}".encode())

    with m.kernel.clock.measure() as reg_span:
        reg = ua.register_mem(va, BUFFER_PAGES * PAGE_SIZE)

    hog = m.spawn("hog")
    hog_pages = int(NUM_FRAMES * factor)
    hog_va = hog.mmap(hog_pages, name="hog")
    for i in range(hog_pages):
        hog.write(hog_va + i * PAGE_SIZE, b"HOG")

    # First-touch DMA: translate one message's worth of the buffer the
    # way every DMA path does — for ODP this suspends, fault-services,
    # and resumes; for kiobuf it is a plain TPT walk.
    tag = m.agent.prot_tag(app)
    with m.kernel.clock.measure() as dma_span:
        m.nic._tpt_translate(reg.handle, va, TOUCH_PAGES * PAGE_SIZE, tag)

    resident_pins = len(m.kernel.pagemap.pinned_frames())
    point = dict(
        backend=backend, factor=factor,
        reg_ns=reg_span.elapsed_ns, dma_ns=dma_span.elapsed_ns,
        faults=m.agent.odp_faults_serviced,
        coalesced=m.agent.odp_faults_coalesced,
        evicted=m.agent.odp_pages_evicted,
        suspensions=m.nic.dma_suspensions,
        resident_pins=resident_pins)

    ua.deregister_mem(reg)
    point["leaked_pins"] = len(audit_pin_leaks(m.kernel, m.agent))
    point["orphans"] = m.kernel.pagemap.orphan_count()
    assert audit_tpt_consistency(m.agent) == []
    audit_kernel_invariants(m.kernel)
    return point


@pytest.fixture(scope="module")
def sweep():
    return {(backend, factor): run_point(backend, factor)
            for factor in FACTORS
            for backend in ("kiobuf", "odp")}


def test_e20_odp_pressure_sweep(sweep, report):
    if report("E20: pin-at-register vs pin-on-fault (ODP)"):
        print_table(
            f"E20 — {BUFFER_PAGES}-page buffer, {NUM_FRAMES}-frame RAM, "
            f"{TOUCH_PAGES}-page first touch",
            ["allocator / RAM", "reg kiobuf", "reg odp",
             "1st-touch kiobuf", "1st-touch odp", "odp faults",
             "pins kiobuf", "pins odp", "odp evicted"],
            [[factor,
              fmt_ns(sweep["kiobuf", factor]["reg_ns"]),
              fmt_ns(sweep["odp", factor]["reg_ns"]),
              fmt_ns(sweep["kiobuf", factor]["dma_ns"]),
              fmt_ns(sweep["odp", factor]["dma_ns"]),
              sweep["odp", factor]["faults"],
              sweep["kiobuf", factor]["resident_pins"],
              sweep["odp", factor]["resident_pins"],
              sweep["odp", factor]["evicted"]]
             for factor in FACTORS])
    for (backend, factor), point in sweep.items():
        # Acceptance: the sweep converges with nothing leaked.
        assert point["leaked_pins"] == 0, (backend, factor)
        assert point["orphans"] == 0, (backend, factor)
    for factor in FACTORS:
        kio, odp = sweep["kiobuf", factor], sweep["odp", factor]
        # Acceptance: O(1) registration beats pin-at-register...
        assert odp["reg_ns"] < kio["reg_ns"], factor
        # ...the bill arrives at first touch instead...
        assert odp["dma_ns"] > kio["dma_ns"], factor
        assert odp["faults"] >= 1 and odp["suspensions"] >= 1, factor
        assert kio["faults"] == 0 and kio["suspensions"] == 0, factor
        # ...and the resident-pin footprint is strictly smaller: pins
        # follow the touched working set, not the registered size.
        assert odp["resident_pins"] < kio["resident_pins"], factor
        assert odp["resident_pins"] <= TOUCH_PAGES, factor


def test_e20_single_point(benchmark):
    """Host time of one ODP sweep point (simulator throughput)."""
    benchmark(lambda: run_point("odp", 1.75))
