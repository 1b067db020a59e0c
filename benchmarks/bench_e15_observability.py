"""E15 — the observability layer: populated snapshots, near-free when off.

Two claims are on trial:

1. **Enabled observability sees the stack.**  Running the 1 MiB
   zero-copy loop (plus a lossy phase to exercise the retransmission
   protocol) with observability enabled must populate the snapshot with
   the numbers the paper's evaluation would quote: registration-cache
   hit rate, DMA burst-size histogram, fabric retransmit counters, NIC
   doorbell→completion latency.  The snapshot is recorded into
   ``BENCH.json``'s ``metrics`` section, and the span recorder's Chrome
   trace is exported (``REPRO_BENCH_TRACE``) for the CI artifact.
2. **Disabled observability is near-free.**  Every hot-path emit hides
   behind one ``enabled`` branch, so the shipped default must cost
   < 5 % wall-clock on the same 1 MiB zero-copy loop — the fast-path
   wins of E13 survive carrying the instrumentation.
"""

import json
import os
import time

from repro.analysis.sanitizer import PinSanitizer
from repro.bench.harness import print_table, record
from repro.msg.endpoint import make_pair
from repro.msg.protocols import RendezvousZeroCopyProtocol
from repro.sim.faults import FaultPlan
from repro.via.machine import Cluster

NBYTES = 1 << 20
LOOP = 20
ROUNDS = 5


def build_pair():
    """A connected endpoint pair on a fresh two-machine cluster."""
    cluster = Cluster(2, num_frames=4096, backend="kiobuf")
    s, r = make_pair(cluster)
    pages = NBYTES // 4096 + 2
    src = s.task.mmap(pages)
    s.task.touch_pages(src, pages)
    dst = r.task.mmap(pages)
    r.task.touch_pages(dst, pages)
    s.task.write(src, b"\xa5" * NBYTES)
    return cluster, s, r, src, dst


def timed_loop(proto, s, r, src, dst, loops=LOOP):
    """Host seconds for ``loops`` transfers."""
    t0 = time.perf_counter()
    for _ in range(loops):
        res = proto.transfer(s, r, src, dst, NBYTES)
        assert res.ok
    return time.perf_counter() - t0


def best_of_alternating(proto, arms, rounds=ROUNDS):
    """Best-of-``rounds`` :func:`timed_loop` seconds per arm, where each
    arm is an ``(s, r, src, dst)`` tuple.  The arms take turns within
    every round, so a change of host speed part-way through the run
    hits all of them alike."""
    best = [float("inf")] * len(arms)
    for _ in range(rounds):
        for i, arm in enumerate(arms):
            best[i] = min(best[i], timed_loop(proto, *arm))
    return best


def test_e15_snapshot_populated(report):
    """Enabled observability captures regcache/DMA/fabric/NIC activity."""
    cluster, s, r, src, dst = build_pair()
    cluster.obs.enable()
    # The pin sanitizer rides along: its event/violation gauges fold
    # into the same snapshot, so BENCH.json records the clean bill of
    # health next to the performance numbers.
    san = PinSanitizer(strict=True).arm(cluster)
    proto = RendezvousZeroCopyProtocol(use_cache=True)

    # Healthy phase: populates cache hit rate, DMA bursts, latencies.
    for _ in range(8):
        assert proto.transfer(s, r, src, dst, NBYTES).ok

    # Lossy phase: exercises the retransmission counters.
    cluster.inject_faults(FaultPlan(seed=7, loss_rate=0.2))
    for _ in range(4):
        assert proto.transfer(s, r, src, dst, NBYTES).ok
    cluster.inject_faults(None)

    snap = cluster.obs.snapshot()
    metrics = snap["metrics"]

    hit_rate = metrics["core.regcache.hit_rate"]["value"]
    bursts = metrics["hw.dma.burst_bytes"]
    retransmits = metrics["via.nic.retransmits"]
    latency = metrics["via.nic.doorbell_to_completion_ns"]
    assert hit_rate > 0.5, f"cache should be hot, hit_rate={hit_rate}"
    assert bursts["count"] > 0 and bursts["max"] >= 4096
    assert retransmits > 0, "lossy phase must retransmit"
    assert metrics["via.fabric.packets_dropped"] > 0
    assert latency["count"] > 0 and latency["sum"] > 0
    assert snap["spans"]["by_name"], "transfer spans must be recorded"

    san_events = metrics["analysis.san.events_observed"]["value"]
    assert san_events > 0, "sanitizer must have observed the workload"
    assert metrics["analysis.san.violations_total"]["value"] == 0
    san.disarm()

    record("metrics", "E15 observability snapshot", metrics=metrics,
           spans=snap["spans"])
    if report("E15a: enabled-observability snapshot"):
        print_table(
            "E15a — headline metrics of the instrumented loop",
            ["metric", "value"],
            [["core.regcache.hit_rate", f"{hit_rate:.3f}"],
             ["hw.dma.burst_bytes count", bursts["count"]],
             ["hw.dma.burst_bytes mean", f"{bursts['mean']:.0f}"],
             ["via.nic.retransmits", retransmits],
             ["via.fabric.packets_dropped",
              metrics["via.fabric.packets_dropped"]],
             ["doorbell→completion mean ns", f"{latency['mean']:.0f}"],
             ["analysis.san.events_observed", san_events],
             ["analysis.san.violations_total", 0]])

    # Chrome trace export: must round-trip through json and is written
    # out for the CI artifact when REPRO_BENCH_TRACE names a path.
    chrome = cluster.obs.export_chrome_trace()
    parsed = json.loads(json.dumps(chrome))
    assert parsed["traceEvents"], "trace export must contain spans"
    trace_path = os.environ.get("REPRO_BENCH_TRACE")
    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(chrome, fh)


def test_e15_disabled_path_overhead(report):
    """The disabled (default) observability path costs < 5 % wall-clock
    on the 1 MiB zero-copy loop.

    Baseline: a never-enabled cluster (the shipped default).  Measured:
    a cluster whose observability was enabled, exercised (registry and
    span recorder populated), then disabled again — the state every
    long-running system returns to after a diagnosis session.
    """
    proto = RendezvousZeroCopyProtocol(use_cache=True)

    cluster_b, s_b, r_b, src_b, dst_b = build_pair()
    assert not cluster_b.obs.enabled
    proto.transfer(s_b, r_b, src_b, dst_b, NBYTES)   # warm

    cluster_m, s_m, r_m, src_m, dst_m = build_pair()
    cluster_m.obs.enable()
    for _ in range(3):                               # populate the registry
        assert proto.transfer(s_m, r_m, src_m, dst_m, NBYTES).ok
    cluster_m.obs.disable()
    proto.transfer(s_m, r_m, src_m, dst_m, NBYTES)   # warm post-disable

    baseline_s, measured_s = best_of_alternating(
        proto, [(s_b, r_b, src_b, dst_b), (s_m, r_m, src_m, dst_m)])

    ratio = measured_s / baseline_s
    record("metric", "E15 disabled-observability overhead", ratio=ratio,
           baseline_ms=baseline_s * 1e3, measured_ms=measured_s * 1e3)
    if report("E15b: disabled-path overhead"):
        print_table(
            "E15b — 1 MiB zero-copy loop, disabled obs vs baseline",
            ["variant", "host ms/loop"],
            [["never-enabled (baseline)", f"{baseline_s * 1e3:.2f}"],
             ["enabled-then-disabled", f"{measured_s * 1e3:.2f}"],
             ["ratio", f"{ratio:.3f}"]])
    assert ratio < 1.05, (
        f"disabled observability must cost < 5% wall-clock "
        f"(got {ratio:.3f}x)")
