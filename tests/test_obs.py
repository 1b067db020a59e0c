"""Tests for the observability layer (repro.obs).

Covers the metric primitives, the spans read from trace record pairs
and their exports, the facade's enabled/disabled gating, and end-to-end snapshots of an
instrumented workload (including determinism under a fixed seed).
"""

import ast
import json
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import events as ev
from repro.hw.physmem import PAGE_SIZE
from repro.kernel import paging
from repro.kernel.kernel import Kernel
from repro.msg.endpoint import make_pair
from repro.msg.protocols import Protocol, RendezvousZeroCopyProtocol
from repro.obs.counters import TRACE_COUNTERS
from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, NS_BUCKETS, SIZE_BUCKETS,
)
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan
from repro.sim.trace import Trace
from repro.via.constants import VIP_ERROR_CONN_LOST, VIP_SUCCESS, ViState
from repro.via.descriptor import DataSegment, Descriptor
from repro.via.machine import Cluster, Machine, connected_pair
from repro.workloads.allocator import MemoryHog


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(ValueError, match="negative"):
            c.inc(-1)

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_tracks_extremes(self):
        g = Gauge("depth")
        g.set(5)
        g.set(2)
        g.set(9)
        assert g.snapshot() == {"value": 9, "max": 9, "min": 2}

    def test_inc_dec(self):
        g = Gauge("depth")
        g.inc(3)
        g.dec(1)
        assert g.value == 2
        assert g.max_value == 3

    def test_reset(self):
        g = Gauge("depth")
        g.set(7)
        g.reset()
        assert g.snapshot() == {"value": 0, "max": None, "min": None}


class TestHistogram:
    def test_observe_buckets_by_upper_bound(self):
        h = Histogram("lat", buckets=(10, 100, 1000))
        for v in (5, 10, 11, 5000):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["buckets"] == {"le_10": 2, "le_100": 1,
                                   "le_1000": 0, "inf": 1}
        assert snap["min"] == 5 and snap["max"] == 5000
        assert snap["mean"] == pytest.approx((5 + 10 + 11 + 5000) / 4)

    def test_quantile(self):
        h = Histogram("lat", buckets=(10, 100, 1000))
        for v in (1, 2, 3, 50, 5000):
            h.observe(v)
        assert h.quantile(0.5) == 10       # 3rd of 5 lands in le_10
        assert h.quantile(1.0) == float("inf")
        assert Histogram("e").quantile(0.5) is None
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_non_ascending_buckets_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("bad", buckets=(10, 5))

    def test_default_bucket_tables_are_ascending(self):
        assert list(NS_BUCKETS) == sorted(NS_BUCKETS)
        assert list(SIZE_BUCKETS) == sorted(SIZE_BUCKETS)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already exists as counter"):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.counter("a.first").inc(2)
        assert list(reg.snapshot()) == ["a.first", "z.last"]

    def test_contains_len_get(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        assert "g" in reg and "h" not in reg
        assert len(reg) == 1
        assert reg.get("g").kind == "gauge"
        assert reg.get("h") is None

    def test_reset_keeps_names(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(9)
        reg.reset()
        assert reg.counter("c").value == 0
        assert "c" in reg


def reclaim(trace, clock, ns, target=4):
    """A ``kernel.reclaim`` span of ``ns`` simulated nanoseconds."""
    trace.emit("reclaim_start", target=target, free=0)
    clock.charge(ns)
    trace.emit("reclaim_done", target=target, freed=target)


class TestTraceSpans:
    """Spans read from start/done record pairs in the trace ring."""

    def make(self, maxlen=65536):
        clock = SimClock()
        return clock, Trace(clock, maxlen=maxlen)

    def test_span_records_sim_elapsed(self):
        clock, trace = self.make()
        clock.charge(300)
        reclaim(trace, clock, 500)
        (ev,) = trace.obs.export_chrome_trace()["traceEvents"]
        assert ev["name"] == "kernel.reclaim"
        assert ev["ts"] == 0.3 and ev["dur"] == 0.5      # µs
        assert ev["args"]["depth"] == 0

    def test_reclaim_nests_inside_transfer(self):
        clock, trace = self.make()
        trace.emit("msg_transfer_start", protocol="eager", nbytes=64)
        clock.charge(10)
        trace.emit("dma_write", addr=0, length=64)
        reclaim(trace, clock, 5)
        clock.charge(1)
        trace.emit("msg_transfer_done", protocol="eager", nbytes=64,
                   corrupt=False)
        doc = trace.obs.export_chrome_trace()
        assert [(e["name"], e["ts"], e["dur"], e["args"]["depth"])
                for e in doc["traceEvents"]] == [
            ("kernel.reclaim", 0.01, 0.005, 1),
            ("msg.transfer.eager", 0.0, 0.016, 0)]
        assert doc["otherData"]["open"] == 0

    def test_summary_aggregates_per_name(self):
        clock, trace = self.make()
        for ns in (100, 300):
            reclaim(trace, clock, ns)
        trace.emit("msg_transfer_start", protocol="eager", nbytes=8)
        clock.charge(50)
        trace.emit("msg_transfer_done", protocol="eager", nbytes=8,
                   corrupt=False)
        summary = trace.obs.snapshot()["spans"]
        assert summary["by_name"]["kernel.reclaim"] == {
            "count": 2, "total_ns": 400, "mean_ns": 200.0}
        assert list(summary["by_name"]) == ["kernel.reclaim",
                                            "msg.transfer.eager"]
        assert (summary["recorded"], summary["dropped"], summary["open"],
                summary["truncated"]) == (3, 0, 0, 0)

    def test_chrome_export_round_trips(self):
        clock, trace = self.make()
        trace.emit("msg_transfer_start", protocol="eager", nbytes=4096)
        clock.charge(2000)
        trace.emit("msg_transfer_done", protocol="eager", nbytes=4096,
                   corrupt=False)
        doc = json.loads(json.dumps(trace.obs.export_chrome_trace()))
        (ev,) = doc["traceEvents"]
        assert ev["name"] == "msg.transfer.eager" and ev["ph"] == "X"
        assert ev["ts"] == 0.0 and ev["dur"] == 2.0   # µs
        assert ev["args"] == {"protocol": "eager", "nbytes": 4096,
                              "depth": 0}
        assert doc["otherData"] == {"clock": "sim-ns", "dropped": 0,
                                    "open": 0, "truncated": 0}

    def test_evicted_start_counts_truncated(self):
        clock, trace = self.make(maxlen=4)
        reclaim(trace, clock, 1)                   # evicted whole
        trace.emit("reclaim_start", target=2, free=0)
        for i in range(3):
            trace.emit("filler", i=i)              # evicts the start
        trace.emit("reclaim_done", target=2, freed=2)
        summary = trace.obs.snapshot()["spans"]
        assert (summary["recorded"], summary["dropped"], summary["open"],
                summary["truncated"]) == (0, 1, 0, 1)
        other = trace.obs.export_chrome_trace()["otherData"]
        assert other["truncated"] == 1 and other["dropped"] == 1

    def test_start_without_done_is_open(self):
        """A reclaim that raised wrote no done: the transfer around it
        still closes, and the reclaim is counted open, as is a transfer
        still running."""
        clock, trace = self.make()
        trace.emit("msg_transfer_start", protocol="eager", nbytes=8)
        trace.emit("reclaim_start", target=4, free=0)
        clock.charge(7)
        trace.emit("msg_transfer_done", protocol="eager", nbytes=8,
                   corrupt=False)
        trace.emit("msg_transfer_start", protocol="eager", nbytes=8)
        doc = trace.obs.export_chrome_trace()
        assert [(e["name"], e["dur"], e["args"]["depth"])
                for e in doc["traceEvents"]] == [
            ("msg.transfer.eager", 0.007, 0)]
        assert doc["otherData"]["open"] == 2
        assert trace.obs.snapshot()["spans"]["open"] == 2

    def test_clear_drops_spans(self):
        clock, trace = self.make()
        reclaim(trace, clock, 5)
        trace.clear()
        assert trace.obs.export_chrome_trace()["traceEvents"] == []


class TestObservabilityFacade:
    def make(self):
        clock = SimClock()
        return clock, Trace(clock).obs

    def test_disabled_by_default_and_emits_nothing(self):
        clock, obs = self.make()
        assert not obs.enabled
        obs.inc("c")
        obs.set_gauge("g", 1)
        obs.observe("h", 5)
        reclaim(obs.trace, clock, 1)
        assert len(obs.metrics) == 0
        # spans are trace records, so they exist while disabled too
        assert obs.snapshot()["spans"]["recorded"] == 1

    def test_enable_disable_chain(self):
        _, obs = self.make()
        assert obs.enable() is obs
        obs.inc("c", 2)
        assert obs.disable() is obs
        obs.inc("c", 100)                       # ignored
        assert obs.counter("c").value == 2      # accumulations survive

    def test_reset_drops_everything(self):
        """``reset`` drops every metric the facade holds; the spans are
        the trace's records and stay until ``trace.clear()``."""
        clock, obs = self.make()
        obs.enable()
        obs.inc("c")
        reclaim(obs.trace, clock, 1)
        obs.reset()
        assert obs.counter("c").value == 0
        assert obs.counter("kernel.paging.reclaim_runs").value == 0
        assert obs.snapshot()["spans"]["recorded"] == 1

    def test_snapshot_shape(self):
        clock, obs = self.make()
        obs.enable()
        obs.inc("a.count", 3)
        obs.set_gauge("a.depth", 2)
        obs.observe("a.lat", 150)
        reclaim(obs.trace, clock, 42)
        snap = obs.snapshot()
        assert snap["enabled"] is True
        assert snap["now_ns"] == clock.now_ns
        assert snap["metrics"]["a.count"] == 3
        assert snap["metrics"]["a.depth"]["value"] == 2
        assert snap["metrics"]["a.lat"]["count"] == 1
        assert snap["spans"]["by_name"]["kernel.reclaim"]["total_ns"] == 42
        json.dumps(snap)                        # JSON-safe throughout


def test_spans_match_a_reference_log_under_pressure(monkeypatch):
    """An odp_pressure-shaped run: cached zero-copy transfers on the ODP
    backend while memory hogs keep reclaim busy, so some reclaims run
    inside transfers and some on their own.  A log kept by wrapping the
    two producers must equal the spans read from the trace, span for
    span: name, start, duration and depth, in the order they closed."""
    log = []
    depth = [0]

    def logged(fn, name_of, clock_of):
        def wrapper(*args, **kwargs):
            name, clock = name_of(args), clock_of(args)
            start, d = clock.now_ns, depth[0]
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                log.append((name, start / 1000.0,
                            (clock.now_ns - start) / 1000.0, d))
        return wrapper

    monkeypatch.setattr(paging, "try_to_free_pages", logged(
        paging.try_to_free_pages, lambda a: "kernel.reclaim",
        lambda a: a[0].clock))
    monkeypatch.setattr(Protocol, "transfer", logged(
        Protocol.transfer, lambda a: f"msg.transfer.{a[0].name}",
        lambda a: a[1].machine.kernel.clock))

    rng = random.Random(SEED)
    frames = 256
    cluster = Cluster(2, num_frames=frames, swap_slots=8 * frames,
                      backend="odp")
    s, r = make_pair(cluster, cache_max_pages=32)
    buffers = []
    for _ in range(4):
        src, dst = s.task.mmap(16), r.task.mmap(16)
        s.task.touch_pages(src, 16)
        r.task.touch_pages(dst, 16)
        buffers.append((src, dst))
    hogs = [MemoryHog(m.kernel, name="hog") for m in cluster.machines]
    for hog in hogs:
        hog.grow(int(frames * 0.75))
    proto = RendezvousZeroCopyProtocol(use_cache=True)
    for i in range(24):
        if i % 3 == 2:
            for hog in hogs:
                hog.churn()
        src, dst = rng.choice(buffers)
        assert proto.transfer(s, r, src, dst,
                              rng.randrange(4, 17) * PAGE_SIZE).ok

    doc = cluster.obs.export_chrome_trace()
    spans = [(e["name"], e["ts"], e["dur"], e["args"]["depth"])
             for e in doc["traceEvents"]]
    assert spans == log
    assert doc["otherData"] == {"clock": "sim-ns", "dropped": 0,
                                "open": 0, "truncated": 0}
    reclaim_depths = {d for name, _, _, d in log if name == "kernel.reclaim"}
    assert reclaim_depths == {0, 1}


def run_workload(seed: int) -> dict:
    """One seeded two-machine transfer workload, observability on."""
    cluster = Cluster(2, num_frames=1024, backend="kiobuf", seed=seed)
    cluster.obs.enable()
    s, r = make_pair(cluster)
    src = s.task.mmap(8)
    s.task.touch_pages(src, 8)
    dst = r.task.mmap(8)
    r.task.touch_pages(dst, 8)
    s.task.write(src, b"\x5a" * 8192)
    proto = RendezvousZeroCopyProtocol(use_cache=True)
    for _ in range(4):
        assert proto.transfer(s, r, src, dst, 8192).ok
    return cluster.obs.snapshot()


class TestEndToEnd:
    def test_instrumented_workload_populates_metrics(self):
        snap = run_workload(seed=0)
        metrics = snap["metrics"]
        assert metrics["via.nic.completions.send"] > 0
        assert metrics["via.nic.doorbell_to_completion_ns"]["count"] > 0
        assert metrics["hw.dma.bursts"] > 0
        assert metrics["msg.transfers.rendezvous-zerocopy+cache"] == 4
        assert metrics["core.regcache.hit_rate"]["value"] > 0
        assert snap["spans"]["by_name"][
            "msg.transfer.rendezvous-zerocopy+cache"]["count"] == 4

    def test_regcache_metrics_total_every_cache_on_the_facade(self):
        """Both endpoints' caches feed one registry: each counter is the
        sum of the caches' stats, not the last writer's copy."""
        cluster = Cluster(2, num_frames=1024, backend="kiobuf")
        cluster.obs.enable()
        s, r = make_pair(cluster)
        src = s.task.mmap(2)
        s.task.touch_pages(src, 2)
        dst = r.task.mmap(2)
        r.task.touch_pages(dst, 2)
        proto = RendezvousZeroCopyProtocol(use_cache=True)
        for _ in range(5):
            assert proto.transfer(s, r, src, dst, 8192).ok
        assert s.cache.shed() + r.cache.shed() == 4
        caches = (s.cache, r.cache)
        hits = sum(c.stats.hits for c in caches)
        misses = sum(c.stats.misses for c in caches)
        assert (hits, misses) == (8, 2)
        metrics = cluster.obs.snapshot()["metrics"]
        assert metrics["core.regcache.hits"] == 8
        assert metrics["core.regcache.misses"] == 2
        assert metrics["core.regcache.evictions"] == 2
        assert metrics["core.regcache.hit_rate"]["value"] == 0.8
        assert "core.regcache.cached_pages" not in metrics

    @pytest.mark.san_suppress   # suite gauges differ between the runs
    def test_snapshot_deterministic_under_fixed_seed(self):
        a = run_workload(seed=7)
        b = run_workload(seed=7)
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)

    def test_cluster_shares_one_observability(self):
        cluster = Cluster(2)
        assert cluster[0].obs is cluster[1].obs is cluster.obs

    def test_watchdog_violation_carries_metrics_snapshot(self):
        """core.audit attaches the full observability snapshot to every
        InvariantViolation."""
        from repro.core.audit import InvariantWatchdog
        from repro.errors import InvariantViolation
        from repro.via.machine import Machine
        m = Machine()
        m.obs.enable()
        m.kernel.obs.inc("test.marker", 9)
        watchdog = InvariantWatchdog().arm(m)
        t = m.spawn("victim")
        va = t.mmap(1)
        t.touch_pages(va, 1)
        # Corrupt accounting on purpose: pin a frame, then free it.
        pte = t.page_table.lookup(va // 4096)
        m.kernel.pagemap.page(pte.frame).pin_count += 1
        with pytest.raises(InvariantViolation) as exc_info:
            watchdog.check()
        snap = exc_info.value.snapshot["metrics"]
        assert snap["metrics"]["test.marker"] == 9
        watchdog.disarm()


# ---------------------------------------------------- counters from the trace

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _pattern(template: str) -> "re.Pattern[str]":
    """A regex matching every name a counter template can produce."""
    parts = re.split(r"\{[^}]*\}", template)
    return re.compile("[^.]+".join(re.escape(p) for p in parts) + r"\Z")


TABLE_PATTERNS = {rule.name: _pattern(rule.name) for rule in TRACE_COUNTERS}


def table_counter(name: str) -> bool:
    """Is ``name`` a counter the table produces?"""
    return any(p.match(name) for p in TABLE_PATTERNS.values())


def expected_from_trace(trace) -> dict:
    """Every table counter recomputed from the retained records."""
    expected: dict = {}
    for rule in TRACE_COUNTERS:
        for event in trace.of_kind(rule.kind):
            detail = event.detail
            if rule.when is not None and not rule.when(detail):
                continue
            name = rule.name.format_map(detail)
            amount = 1 if rule.amount is None else detail[rule.amount]
            expected[name] = expected.get(name, 0) + amount
    return expected


def _literal_name(node: ast.expr) -> str | None:
    """The metric name a call passes, with ``{}`` for each formatted
    part of an f-string; None when it is not a literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    return None


class TestCounterTable:
    def make(self, enabled=True):
        trace = Trace(SimClock())
        assert not trace.obs.enabled
        if enabled:
            trace.obs.enable()
        return trace.obs, trace

    def test_constant_template_amount_and_condition(self):
        obs, trace = self.make()
        trace.emit("swap_skip", reason="pinned", pid=1, vpn=2)
        trace.emit("swap_out", pid=1, vpn=3, frame=4, slot=0,
                   refs_before=2, freed=False)
        trace.emit("swap_out", pid=1, vpn=5, frame=6, slot=1,
                   refs_before=1, freed=True)
        trace.emit("reclaim_done", target=4, freed=3)
        trace.emit("unrelated", x=1)
        metrics = obs.snapshot()["metrics"]
        assert metrics == {
            "kernel.paging.frames_freed": 3,
            "kernel.paging.orphaned_frames": 1,
            "kernel.paging.reclaim_runs": 1,
            "kernel.paging.reclaim_shortfalls": 1,
            "kernel.paging.swap_outs": 2,
            "kernel.paging.swap_skips.pinned": 1,
        }

    def test_zero_amount_creates_its_counter(self):
        obs, trace = self.make()
        trace.emit("reclaim_done", target=0, freed=0)
        metrics = obs.snapshot()["metrics"]
        assert metrics["kernel.paging.frames_freed"] == 0
        assert "kernel.paging.reclaim_shortfalls" not in metrics

    def test_disabled_observability_counts_nothing(self):
        obs, trace = self.make(enabled=False)
        trace.emit("cache_reclaim", frame=1)
        assert trace.count("cache_reclaim") == 1
        assert len(obs.metrics) == 0
        obs.enable()
        trace.emit("cache_reclaim", frame=2)
        assert obs.counter("kernel.paging.cache_reclaims").value == 1

    def test_kernel_machine_and_cluster_wire_trace_to_obs(self):
        kernel = Kernel()
        assert kernel.obs is kernel.trace.obs
        machine = Machine()
        assert machine.kernel.trace.obs is machine.obs
        cluster = Cluster(2)
        assert cluster.trace.obs is cluster.obs
        for m in cluster.machines:
            assert m.kernel.trace is cluster.trace
            assert m.nic.dma._trace.obs is cluster.obs

    def test_every_table_kind_is_emitted_in_src(self):
        """Every kind the table counts is written somewhere in src: a
        trace ``emit("literal")``, or an event-hub ``record(NAME)``
        whose NAME is a kind constant of :mod:`repro.analysis.events`."""
        hub_kinds = {name: value for name, value in vars(ev).items()
                     if name.isupper() and isinstance(value, str)}
        emitted = set()
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.args):
                    continue
                arg = node.args[0]
                if node.func.attr == "emit" \
                        and isinstance(arg, ast.Constant):
                    emitted.add(arg.value)
                elif node.func.attr == "record" \
                        and isinstance(arg, ast.Name) \
                        and arg.id in hub_kinds:
                    emitted.add(hub_kinds[arg.id])
        kinds = {rule.kind for rule in TRACE_COUNTERS}
        assert kinds <= emitted, kinds - emitted

    def test_no_table_counter_is_bumped_directly(self):
        """A counter the table derives from the trace must not also be
        bumped by name at a call site: that would count it twice."""
        offenders = []
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("inc", "counter")
                        and node.args):
                    continue
                name = _literal_name(node.args[0])
                if name is None:
                    continue
                if name in TABLE_PATTERNS or table_counter(name):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno} {name}")
        assert offenders == []


class TestCountersMatchTallies:
    """Each counter the table derives equals the component tally it
    shadows; every increment of the tally leaves its record."""

    @staticmethod
    def pair():
        cluster, ua_s, ua_r, vi_s, vi_r = connected_pair("kiobuf")
        cluster.obs.enable()
        return cluster, ua_s, ua_r, vi_s, vi_r

    @staticmethod
    def nic_total(cluster, attr):
        return sum(getattr(m.nic, attr) for m in cluster.machines)

    @staticmethod
    def remote_region(ua, **enable):
        va = ua.task.mmap(1)
        ua.task.touch_pages(va, 1)
        return va, ua.register_mem(va, PAGE_SIZE, **enable)

    def post_remote_op(self, side, fault):
        """Post one send-queue operation of ``side`` whose responder
        (machine 1) hits ``fault``: ``"protection"`` (the target is not
        enabled for the operation) or ``"dma"`` (the responder's DMA
        engine fails).  Returns the cluster."""
        cluster, ua_s, ua_r, vi_s, vi_r = self.pair()
        lva = ua_s.task.mmap(1)
        lreg = ua_s.register_mem(lva, PAGE_SIZE)
        local = [DataSegment(lreg.handle, lva, 8)]
        enable = {"rdma_write": "rdma_write", "rdma_read": "rdma_read",
                  "atomic": "rdma_atomic"}.get(side)
        rva, rreg = self.remote_region(
            ua_r, **({enable: True} if enable and fault == "dma" else {}))
        if side == "recv":
            target = rreg
            if fault == "protection":
                other = cluster[1].spawn("other")
                target = cluster[1].user_agent(other).register_mem(
                    other.mmap(1), PAGE_SIZE)
            ua_r.post_recv(vi_r, Descriptor.recv(
                [DataSegment(target.handle, target.va, 8)]))
            desc = Descriptor.send(local)
        elif side == "rdma_write":
            desc = Descriptor.rdma_write(local, rreg.handle, rva)
        elif side == "rdma_read":
            desc = Descriptor.rdma_read(local, rreg.handle, rva)
        else:
            desc = Descriptor.atomic_fetchadd(local, rreg.handle, rva, 1)
        if fault == "dma":
            cluster[1].nic.dma.fault_plan = FaultPlan(seed=SEED,
                                                      dma_fail_rate=1.0)
        ua_s.post_send(vi_s, desc)
        assert desc.status != VIP_SUCCESS
        return cluster

    @pytest.mark.parametrize("side", ["recv", "rdma_write", "rdma_read",
                                      "atomic"])
    def test_responder_protection_fault(self, side):
        cluster = self.post_remote_op(side, "protection")
        faults = self.nic_total(cluster, "protection_faults")
        assert faults == 1
        assert cluster.obs.counter(
            "via.nic.protection_faults").value == faults

    @pytest.mark.parametrize("side", ["recv", "rdma_write", "rdma_read",
                                      "atomic"])
    def test_responder_dma_fault(self, side):
        cluster = self.post_remote_op(side, "dma")
        faults = self.nic_total(cluster, "dma_faults")
        assert faults == 1
        assert cluster.obs.counter("via.nic.dma_faults").value == faults

    def test_single_dma_read_and_write(self):
        kernel = Kernel()
        kernel.obs.enable()
        kernel.dma.write(4096, b"\x01" * 100)
        assert kernel.dma.read(4096, 60) == b"\x01" * 60
        assert kernel.obs.counter("hw.dma.bytes_written").value == \
            kernel.dma.bytes_written == 100
        assert kernel.obs.counter("hw.dma.bytes_read").value == \
            kernel.dma.bytes_read == 60

    def test_corrupted_rdma_read_response(self):
        cluster, ua_s, ua_r, vi_s, vi_r = self.pair()
        lva = ua_s.task.mmap(1)
        lreg = ua_s.register_mem(lva, PAGE_SIZE)
        rva, rreg = self.remote_region(ua_r, rdma_read=True)
        plan = FaultPlan(seed=SEED, corrupt_rate=1.0)
        cluster.inject_faults(plan)
        desc = Descriptor.rdma_read([DataSegment(lreg.handle, lva, 64)],
                                    rreg.handle, rva)
        ua_s.post_send(vi_s, desc)
        assert desc.status == VIP_ERROR_CONN_LOST
        assert plan.stats.corruptions == cluster[0].nic.max_retransmits + 1
        metrics = cluster.obs.snapshot()["metrics"]
        assert metrics["via.fabric.packets_corrupted"] == \
            plan.stats.corruptions
        assert metrics["via.fabric.packets_nacked"] == \
            cluster.fabric.packets_nacked == plan.stats.corruptions



class _ChaosRun:
    """A seeded two-machine run over a lossy, delaying, duplicating,
    corrupting fabric with failing DMA, memory pressure on the
    responder and a mix of sends, RDMA writes, RDMA reads and atomics.
    A VI pair broken by a fault is replaced and traffic goes on."""

    OPS = 160

    def __init__(self, backend, seed):
        self.cluster = Cluster(2, num_frames=192, backend=backend,
                               seed=seed)
        self.cluster.obs.enable()
        self.rng = np.random.default_rng(seed)
        c = self.cluster
        self.s, self.r = c[0].spawn("s"), c[1].spawn("r")
        self.ua_s = c[0].user_agent(self.s)
        self.ua_r = c[1].user_agent(self.r)
        self.lva = self.s.mmap(4)
        self.s.touch_pages(self.lva, 4)
        self.lreg = self.ua_s.register_mem(self.lva, 4 * PAGE_SIZE)
        self.rva = self.r.mmap(4)
        self.r.touch_pages(self.rva, 4)
        self.rreg = self.ua_r.register_mem(
            self.rva, 4 * PAGE_SIZE, rdma_write=True, rdma_read=True)
        # Atomics get a page of their own: plain DMA over words the
        # adapter serves atomics on is a sanitizer violation.
        self.ava = self.r.mmap(1)
        self.r.touch_pages(self.ava, 1)
        self.areg = self.ua_r.register_mem(self.ava, PAGE_SIZE,
                                           rdma_atomic=True)
        self.hog = c[1].spawn("hog")
        self.hog_va = self.hog.mmap(512)
        self.connect()
        self.plan = FaultPlan(seed=seed, loss_rate=0.08,
                              duplicate_rate=0.08, corrupt_rate=0.08,
                              delay_rate=0.1, dma_fail_rate=0.02)
        c.inject_faults(self.plan)

    def connect(self):
        self.vi_s = self.ua_s.create_vi()
        self.vi_r = self.ua_r.create_vi()
        self.cluster.connect(self.vi_s, self.cluster[0], self.vi_r,
                             self.cluster[1])

    def op(self, i):
        rng = self.rng
        if (self.vi_s.state != ViState.CONNECTED
                or self.vi_r.state != ViState.CONNECTED):
            self.connect()
        n = int(rng.integers(8, 4 * PAGE_SIZE)) & ~7
        local = [DataSegment(self.lreg.handle, self.lva, n)]
        kind = i % 4
        if kind == 0:
            self.ua_r.post_recv(self.vi_r, Descriptor.recv(
                [DataSegment(self.rreg.handle, self.rva, 4 * PAGE_SIZE)]))
            desc = Descriptor.send(local)
        elif kind == 1:
            desc = Descriptor.rdma_write(local, self.rreg.handle, self.rva)
        elif kind == 2:
            desc = Descriptor.rdma_read(local, self.rreg.handle, self.rva)
        else:
            desc = Descriptor.atomic_fetchadd(
                [DataSegment(self.lreg.handle, self.lva, 8)],
                self.areg.handle, self.ava + 8 * (i % 16), 1)
        self.ua_s.post_send(self.vi_s, desc)
        # Memory pressure on the responder: the hog touches pages,
        # forcing reclaim around (or, for ODP, through) the target.
        for page in rng.integers(0, 512, 4):
            self.hog.write(self.hog_va + int(page) * PAGE_SIZE, b"hog")

    def run(self):
        for i in range(self.OPS):
            self.op(i)
        return self


@pytest.mark.parametrize("backend", ["kiobuf", "odp"])
def test_chaos_table_counters_equal_trace_sums(backend):
    """Every counter the table produces equals the sum of its amount
    over the retained records of its kind, and the tallies the counters
    shadow agree."""
    run = _ChaosRun(backend, SEED).run()
    cluster, trace = run.cluster, run.cluster.trace
    kinds = {rule.kind for rule in TRACE_COUNTERS}
    assert all(trace.dropped_count(kind) == 0 for kind in kinds)
    seen = {kind for kind in kinds if trace.count(kind)}
    assert {"packet_lost", "packet_delayed", "packet_corrupted",
            "packet_duplicated", "packet_nack", "via_retransmit",
            "dma_read", "dma_write", "dma_atomic", "swap_out",
            "reclaim_done"} <= seen, sorted(kinds - seen)

    metrics = cluster.obs.snapshot()["metrics"]
    derived = {name: value for name, value in metrics.items()
               if table_counter(name)}
    assert derived == expected_from_trace(trace)

    def total(attr):
        return sum(getattr(m.nic, attr) for m in cluster.machines)

    for attr, name in [("protection_faults", "via.nic.protection_faults"),
                       ("dma_faults", "via.nic.dma_faults"),
                       ("retransmits", "via.nic.retransmits"),
                       ("duplicates_dropped", "via.nic.duplicates_dropped"),
                       ("recv_drops", "via.nic.recv_drops"),
                       ("dma_suspensions", "via.nic.dma_suspensions"),
                       ("atomic_replays", "via.atomic.replays"),
                       ("atomic_rejects", "via.atomic.rejects")]:
        assert metrics.get(name, 0) == total(attr), name
    fabric, stats = cluster.fabric, run.plan.stats
    assert metrics.get("via.fabric.packets_dropped", 0) == \
        fabric.packets_dropped
    assert metrics.get("via.fabric.packets_nacked", 0) == \
        fabric.packets_nacked
    assert metrics.get("via.fabric.acks_dropped", 0) == fabric.acks_dropped
    assert metrics.get("via.fabric.packets_corrupted", 0) == \
        stats.corruptions
    assert metrics.get("via.fabric.packets_duplicated", 0) == \
        stats.duplicates
    assert metrics.get("via.fabric.packets_delayed", 0) == stats.delays
