"""One workload run: set-up, the measured closed loop, gates, metrics.

Two clocks are measured.  Simulated nanoseconds come from the system's
``SimClock`` and repeat exactly for a seed.  Host seconds are what the
Python simulator costs; they are *reference-normalised*: a fixed
pure-Python loop runs between chunks of about :data:`CHUNK_S` of ops,
and each chunk's op time is scaled by ``(REF_NOMINAL_S / mean of the two
adjacent reference times) ** ref_exponent``, which cancels most of the
slow-down a busy shared host imposes on both.  ``ref_exponent`` is the
workload's own (see ``Workload.ref_exponent``).

The simulated statistics come from the *window*: the first ``n_ops`` ops
of the seeded op list, always run in full.  When ``seconds`` asks for a
longer measurement the loop keeps cycling through the list; those extra
ops add to the host-time metrics only.  Peak RSS is read when the window
ends, so it covers set-up and the window whatever ``seconds`` is.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from time import perf_counter, perf_counter_ns

from workloads import WORKLOADS, Workload

#: nominal duration of one reference loop; normalised host times are in
#: units of "host seconds on a machine where the loop takes this long"
REF_NOMINAL_S = 0.015
REF_ITERS = 57_000
#: wall time of one chunk of ops between two reference loops
CHUNK_S = 0.3
#: set-up is timed this many times; the median is reported
SETUP_BUILDS = 5
#: smallest window, whatever ``--scale`` asks for
MIN_OPS = 16

#: simulated-time categories attributed per op (anything else the clock
#: was charged lands in ``sim.other_us_per_op``)
SIM_CATEGORIES = (
    "via_cpu", "via_nic", "register", "kiobuf", "odp", "mm", "fault",
    "reclaim", "disk_io", "dma", "wire", "retransmit", "cpu_copy",
    "syscall", "reaper", "via_setup")


def reference_seconds() -> float:
    """Time one run of the fixed reference loop."""
    t0 = perf_counter()
    acc = 0
    table = {}
    items = []
    for i in range(REF_ITERS):
        acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        if i & 7 == 0:
            items.append(acc)
    items.sort()
    return perf_counter() - t0


def _factor(ref_a: float, ref_b: float, exponent: float) -> float:
    """Scale for host time measured between two reference loops."""
    return (REF_NOMINAL_S / ((ref_a + ref_b) / 2)) ** exponent


def counters(wl: Workload) -> dict[str, int]:
    """Raw simulator counters, read from public attributes."""
    nics = [m.nic for m in wl.machines]
    kernels = [m.kernel for m in wl.machines]
    agents = [m.agent for m in wl.machines]
    fabric = wl.machines[0].fabric
    return {
        "regcache.hits": sum(c.stats.hits for c in wl.caches),
        "regcache.misses": sum(c.stats.misses for c in wl.caches),
        "regcache.evictions": sum(c.stats.evictions for c in wl.caches),
        "tpt.hits": sum(n.tpt.cache_hits for n in nics),
        "tpt.misses": sum(n.tpt.cache_misses for n in nics),
        "tpt.invalidations": sum(n.tpt.cache_invalidations for n in nics),
        "dma.bursts": sum(n.dma.bursts_issued for n in nics),
        "dma.bytes": sum(n.dma.bytes_read + n.dma.bytes_written
                         for n in nics),
        "fabric.packets": fabric.packets_sent,
        "fabric.dropped": fabric.packets_dropped + fabric.acks_dropped,
        "fabric.nacked": fabric.packets_nacked,
        "nic.retransmits": sum(n.retransmits for n in nics),
        "nic.suspensions": sum(n.dma_suspensions for n in nics),
        "nic.descriptors": sum(
            n.sends_completed + n.recvs_completed + n.rdma_writes_completed
            + n.rdma_reads_completed + n.atomics_completed for n in nics),
        "nic.doorbells": sum(
            vi.send_doorbell.rings + vi.recv_doorbell.rings
            for n in nics for vi in n.vis.values()),
        "odp.serviced": sum(a.odp_faults_serviced for a in agents),
        "odp.coalesced": sum(a.odp_faults_coalesced for a in agents),
        "odp.evicted": sum(a.odp_pages_evicted for a in agents),
        "kernel.major_faults": sum(t.major_faults for k in kernels
                                   for t in k.tasks),
        "swap.reads": sum(k.swap.reads for k in kernels),
        "swap.writes": sum(k.swap.writes for k in kernels),
        "cq.overflows": sum(cq.overflows for cq in wl.cqs),
        "audit.checks": wl.watchdog.checks_run if wl.watchdog else 0,
        "reaper.scans": sum(r.scans for r in wl.reapers),
        "msg.copies_bytes": sum(ep.copies_bytes for ep in wl.endpoints),
        "msg.degraded": wl.degraded,
    }


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, linearly interpolated (0 if empty)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


class _Loop:
    """State of the measured loop: chunks, normalisation, window stats."""

    def __init__(self, tracer, exponent: float) -> None:
        self.tracer = tracer
        self.exponent = exponent
        self.ref_times = [reference_seconds()]
        self.norm_s = 0.0
        self.raw_ns = 0
        self.ops = 0
        self.chunks = 0
        self.chunk_log: list[tuple[int, int]] = []
        self.norm_self_ns = dict.fromkeys(tracer.self_ns, 0.0) \
            if tracer else {}
        self._open()

    def _open(self) -> None:
        self.chunk_wall0 = perf_counter()
        self.chunk_ns = 0
        self.chunk_ops = 0
        self.chunk_self0 = dict(self.tracer.self_ns) if self.tracer else {}

    def add(self, host_ns: int) -> None:
        self.chunk_ns += host_ns
        self.chunk_ops += 1
        if perf_counter() - self.chunk_wall0 >= CHUNK_S:
            self.close()

    def close(self) -> None:
        if not self.chunk_ops:
            return
        ref = reference_seconds()
        factor = _factor(self.ref_times[-1], ref, self.exponent)
        self.ref_times.append(ref)
        self.norm_s += self.chunk_ns / 1e9 * factor
        self.raw_ns += self.chunk_ns
        self.ops += self.chunk_ops
        self.chunks += 1
        self.chunk_log.append((self.chunk_ops, self.chunk_ns))
        if self.tracer:
            for layer, ns in self.tracer.self_ns.items():
                self.norm_self_ns[layer] += \
                    (ns - self.chunk_self0[layer]) * factor
        self._open()


def _build(cls: type[Workload], inputs: dict) -> tuple[Workload, list[float]]:
    """Build the system ``SETUP_BUILDS`` times; returns the last build and
    every build's normalised time."""
    times = []
    for _ in range(SETUP_BUILDS):
        wl = None          # let the previous build go before the next
        gc.collect()       # and its garbage, so no build pays for it
        ref_a = reference_seconds()
        t0 = perf_counter()
        wl = cls(inputs)
        elapsed = perf_counter() - t0
        ref_b = reference_seconds()
        times.append(elapsed * _factor(ref_a, ref_b, cls.ref_exponent))
    return wl, times


def run_workload(name: str, seed: int, scale: float = 1.0,
                 seconds: float = 0.0, tracer=None) -> dict:
    """Run one workload in this process and return its result record.

    ``tracer`` (a :class:`spans.Tracer` already installed) turns on
    per-layer host spans.  Any failed op or failed gate makes the record
    ``correct: False`` and leaves its metrics out.
    """
    cls = WORKLOADS[name]
    n_ops = max(MIN_OPS, round(cls.base_ops * scale))
    inputs = cls.generate(seed, n_ops)
    ops = inputs["ops"]
    record = {"workload": name, "seed": seed, "scale": scale,
              "seconds": seconds, "trace": tracer is not None,
              "correct": False, "attempted": 0, "failed": 0, "errors": []}

    wl, setup_times = _build(cls, inputs)
    clock = wl.clock
    if tracer:
        tracer.clock = clock
    loop = _Loop(tracer, cls.ref_exponent)
    latencies: list[int] = []
    nbytes = 0
    pinned_peak = wl.pinned_pages()
    cats0, sim0, ctr0 = clock.categories(), clock.now_ns, counters(wl)
    window_end = None
    start = perf_counter()
    i = 0
    while True:
        if i == n_ops and window_end is None:
            window_end = (clock.categories(), clock.now_ns, counters(wl),
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if i >= n_ops and perf_counter() - start >= seconds:
            loop.close()
            break
        op = ops[i % n_ops]
        record["attempted"] += 1
        try:
            wl.prepare(op)
            sim_start = clock.now_ns
            if tracer:
                tracer.begin_op(i)
            t0 = perf_counter_ns()
            try:
                sim_ns, moved = wl.execute(op)
            finally:
                t1 = perf_counter_ns()
                if tracer:
                    tracer.end_op(t0, t1, sim_start, clock.now_ns)
            wl.check(op)
        except Exception as exc:   # any failure ends the run, reported
            record["failed"] += 1
            record["errors"].append(f"op {i}: {type(exc).__name__}: {exc}")
            return record
        loop.add(t1 - t0)
        if i < n_ops:
            latencies.append(sim_ns)
            nbytes += moved
            pinned_peak = max(pinned_peak, wl.pinned_pages())
        i += 1
    wall_s = perf_counter() - start

    # -- correctness gates ---------------------------------------------------
    cats1, sim1, ctr1, maxrss_kib = window_end
    cat_delta = {c: ns - cats0.get(c, 0) for c, ns in cats1.items()
                 if ns != cats0.get(c, 0)}
    elapsed_ns = sim1 - sim0
    if sum(cat_delta.values()) != elapsed_ns:
        record["errors"].append(
            f"simulated categories sum to {sum(cat_delta.values())} ns, "
            f"elapsed is {elapsed_ns} ns")
    record["errors"] += wl.audit()
    if record["errors"]:
        return record

    ctr = {k: ctr1[k] - ctr0[k] for k in ctr1}
    digest = hashlib.sha256(json.dumps(
        {"latencies_ns": latencies, "categories_ns": cat_delta,
         "counters": ctr}, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    # -- end-to-end metrics (untraced numbers are the ones compared) ----------
    lat_us = [ns / 1000 for ns in latencies]
    e2e = {
        "setup_s": _metric(statistics.median(setup_times), "s",
                           len(setup_times)),
        "ops_per_host_s": _metric(loop.ops / loop.norm_s, "ops/s", loop.ops),
        "peak_rss_mb": _metric(maxrss_kib / 1024, "MiB", 1),
        "sim_op_p50_us": _metric(_quantile(lat_us, 50), "us", n_ops),
        "sim_op_p99_us": _metric(_quantile(lat_us, 99), "us", n_ops),
        "sim_mb_per_s": _metric(
            _ratio(nbytes / 1e6, sum(latencies) / 1e9), "MB/s", n_ops),
        "pinned_pages_peak": _metric(pinned_peak, "pages", n_ops + 1),
    }

    # -- per-layer: simulated attribution and counters ------------------------
    layer = {}
    for cat in SIM_CATEGORIES:
        layer[f"sim.{cat}_us_per_op"] = _metric(
            cat_delta.get(cat, 0) / n_ops / 1000, "us/op", n_ops)
    other = sum(ns for c, ns in cat_delta.items() if c not in SIM_CATEGORIES)
    layer["sim.other_us_per_op"] = _metric(other / n_ops / 1000, "us/op",
                                           n_ops)
    sim_ms = elapsed_ns / 1e6

    def per_op(key: str, unit: str = "1/op") -> dict:
        return _metric(ctr[key] / n_ops, unit, n_ops)

    def ratio(num: float, den: float) -> dict:
        return _metric(_ratio(num, den), "ratio", int(den))

    layer.update({
        "core.regcache.hit_rate": ratio(
            ctr["regcache.hits"], ctr["regcache.hits"] + ctr["regcache.misses"]),
        "core.regcache.evictions_per_op": per_op("regcache.evictions"),
        "via.tpt.xlate_hit_rate": ratio(
            ctr["tpt.hits"], ctr["tpt.hits"] + ctr["tpt.misses"]),
        "via.tpt.invalidations_per_op": per_op("tpt.invalidations"),
        "hw.dma.bursts_per_op": per_op("dma.bursts"),
        "hw.dma.bytes_per_burst": _metric(
            _ratio(ctr["dma.bytes"], ctr["dma.bursts"]), "B",
            ctr["dma.bursts"]),
        "via.fabric.packets_per_op": per_op("fabric.packets"),
        "via.fabric.retransmit_ratio": ratio(
            ctr["nic.retransmits"], ctr["fabric.packets"]),
        "via.fabric.drop_ratio": ratio(
            ctr["fabric.dropped"], ctr["fabric.packets"]),
        "via.nic.dma_suspensions_per_op": per_op("nic.suspensions"),
        "via.nic.descs_per_post": ratio(
            ctr["nic.descriptors"], ctr["nic.doorbells"]),
        "odp.faults_per_op": per_op("odp.serviced"),
        "odp.coalesce_ratio": ratio(
            ctr["odp.coalesced"], ctr["odp.serviced"] + ctr["odp.coalesced"]),
        "odp.evicted_per_op": per_op("odp.evicted"),
        "kernel.major_faults_per_op": per_op("kernel.major_faults"),
        "kernel.swap_reads_per_op": per_op("swap.reads"),
        "kernel.swap_writes_per_op": per_op("swap.writes"),
        "via.cq.overflows": _metric(ctr["cq.overflows"], "count", n_ops),
        "core.audit.checks_per_sim_ms": _metric(
            _ratio(ctr["audit.checks"], sim_ms), "1/ms", ctr["audit.checks"]),
        "kernel.reaper.scans_per_sim_ms": _metric(
            _ratio(ctr["reaper.scans"], sim_ms), "1/ms", ctr["reaper.scans"]),
        "msg.copies_bytes_per_op": per_op("msg.copies_bytes", "B/op"),
        "msg.degraded_ops": _metric(ctr["msg.degraded"], "count", n_ops),
        "sim.host_s_per_sim_s": _metric(
            _ratio(loop.norm_s, (clock.now_ns - sim0) / 1e9), "s/s",
            loop.ops),
        "raw.ops_per_wall_s": _metric(loop.ops / (loop.raw_ns / 1e9),
                                      "ops/s", loop.ops),
        "raw.ref_loop_ms": _metric(statistics.median(loop.ref_times) * 1000,
                                   "ms", len(loop.ref_times)),
    })

    # -- per-layer: host spans (traced runs only) ------------------------------
    diagnostics = {"window_ops": n_ops, "measured_ops": loop.ops,
                   "chunks": loop.chunks, "wall_s": wall_s,
                   "op_host_ns": loop.raw_ns,
                   "setup_s_each": setup_times,
                   "chunk_ops_ns": loop.chunk_log,
                   "ref_loop_s": loop.ref_times}
    if tracer:
        for name_, ns in loop.norm_self_ns.items():
            layer[f"{name_}.self_us_per_op"] = _metric(
                ns / loop.ops / 1000, "us/op", loop.ops)
            layer[f"{name_}.calls_per_op"] = _metric(
                tracer.calls[name_] / loop.ops, "calls/op", loop.ops)
        reg_us = [ns / 1000 for ns in tracer.register_sim_ns]
        layer["via.kernel_agent.register_sim_p50_us"] = _metric(
            _quantile(reg_us, 50), "us/call", len(reg_us))
        layer["via.kernel_agent.register_sim_p99_us"] = _metric(
            _quantile(reg_us, 99), "us/call", len(reg_us))
        layer["trace.unattributed_share"] = _metric(
            _ratio(loop.raw_ns - tracer.top_ns, loop.raw_ns), "ratio",
            loop.ops)
        diagnostics["traced_self_ns"] = dict(tracer.self_ns)
        diagnostics["traced_top_ns"] = tracer.top_ns

    record.update(correct=True, end_to_end=e2e, per_layer=layer,
                  sim_digest=digest, diagnostics=diagnostics)
    return record
