"""Observability: metrics, sim-time spans, and exporters.

The paper's whole argument rests on *seeing* what the kernel and the NIC
actually did — E1 catches the refcount backend's failure by finding a
``swap_out`` of a registered page in the event trace.  This package is
the quantitative counterpart of that trace: per-subsystem counters,
gauges, and sim-ns latency histograms (the style U-Net and VMMC-2 used
to attribute microseconds to doorbell, DMA, and retransmit paths), plus
nested simulated-time spans exportable as Chrome ``chrome://tracing``
JSON.

Each trace holds one :class:`Observability` facade (so one per kernel,
or one shared across a cluster).  A counted fact is written once, as a
trace record, and :meth:`Observability.count` derives its counters via
:mod:`repro.obs.counters`; anything else is a direct metric call at its
site.  A span is a pair of trace records too: :data:`SPAN_PAIRS` maps
each start kind to its done kind, and the spans are read from the ring
whenever they are asked for, so they exist whenever the trace holds
their records (enabled or not) and ``trace.clear()`` is what drops
them.  Observability is **disabled by default** and the disabled path
is one ``if obs.enabled:`` branch per trace emit and per direct site,
so the data plane's fast path stays fast (benchmark E15 asserts this).

Usage::

    machine.obs.enable()
    ... run a workload ...
    snap = machine.obs.snapshot()        # one dict with everything
    chrome = machine.obs.export_chrome_trace()   # open in chrome://tracing
"""

from __future__ import annotations

from repro.obs.counters import RULES_BY_KIND
from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, NS_BUCKETS, SIZE_BUCKETS,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NS_BUCKETS", "SIZE_BUCKETS",
    "Observability", "SPAN_PAIRS",
]


#: span start kind → (its done kind, span name template over the start
#: record's fields)
SPAN_PAIRS: dict[str, tuple[str, str]] = {
    "reclaim_start": ("reclaim_done", "kernel.reclaim"),
    "msg_transfer_start": ("msg_transfer_done", "msg.transfer.{protocol}"),
}
#: span done kind → its start kind
_START_OF = {done: start for start, (done, _) in SPAN_PAIRS.items()}


class Observability:
    """One trace's metrics registry, and the spans read from its ring.

    ``enabled`` gates every emit.  Hot call sites read it once and skip
    all observability work when False — the shipped default — so the
    cost of carrying the instrumentation is one attribute load and one
    branch per site.  :meth:`enable`/:meth:`disable` flip it at runtime;
    metrics accumulated while enabled survive a disable (they are only
    dropped by :meth:`reset`).
    """

    def __init__(self, trace) -> None:
        #: the trace whose records feed the counters and hold the spans
        self.trace = trace
        self.enabled = False
        self.metrics = MetricsRegistry()
        #: snapshot-time collectors (see :meth:`add_collector`)
        self._collectors: list = []

    # -- collectors --------------------------------------------------------

    def add_collector(self, collector) -> None:
        """Register a snapshot-time collector.

        A collector is called with this facade right before every
        :meth:`snapshot`, so components that keep their own counters
        (the pin-safety sanitizer, for one) can fold them into the
        metrics registry lazily instead of paying per-event metric
        updates on the hot path."""
        self._collectors.append(collector)

    def remove_collector(self, collector) -> None:
        """Deregister a collector added with :meth:`add_collector`
        (no-op if absent)."""
        if collector in self._collectors:
            self._collectors.remove(collector)

    # -- switching ---------------------------------------------------------

    def enable(self) -> "Observability":
        """Turn emission on; returns self for chaining."""
        self.enabled = True
        return self

    def disable(self) -> "Observability":
        """Turn emission off (accumulated data is kept)."""
        self.enabled = False
        return self

    def reset(self) -> None:
        """Drop every metric recorded so far (spans are the trace's
        records: ``trace.clear()`` drops them)."""
        self.metrics.reset()

    # -- emission (all no-ops while disabled) -------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.metrics.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets: tuple = NS_BUCKETS) -> None:
        """Observe ``value`` into histogram ``name`` (no-op while
        disabled).  ``buckets`` only applies on first creation."""
        if not self.enabled:
            return
        self.metrics.histogram(name, buckets=buckets).observe(value)

    def count(self, kind: str, detail: dict) -> None:
        """Apply the counter table to one trace record (called by
        :meth:`Trace.emit <repro.sim.trace.Trace.emit>` while enabled; a
        zero amount still creates its counter)."""
        for rule in RULES_BY_KIND.get(kind, ()):
            if rule.when is None or rule.when(detail):
                self.metrics.counter(rule.name.format_map(detail)).inc(
                    1 if rule.amount is None else detail[rule.amount])

    # metric accessors (always live, so tests can read regardless of state)
    def counter(self, name: str) -> Counter:
        """Get-or-create counter ``name``."""
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        """Get-or-create gauge ``name``."""
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets: tuple = NS_BUCKETS) -> Histogram:
        """Get-or-create histogram ``name``."""
        return self.metrics.histogram(name, buckets=buckets)

    # -- spans ---------------------------------------------------------------

    def _spans(self) -> tuple[list[tuple], dict[str, int]]:
        """Pair the ring's start and done records in one pass.

        Returns the finished spans in the order they closed, each as
        ``(name, start_ns, end_ns, depth, args)`` with the start
        record's fields as ``args``, and what could not be paired:
        ``dropped`` done records the ring evicted, ``open`` starts with
        no done (the work is still running, or raised) and
        ``truncated`` dones whose start the ring evicted.  A done closes
        the innermost open start of its kind, and any start opened
        inside it that is still open is counted open.  A start whose
        work raised out of every span stays on the stack, so the spans
        after it are one level deeper.
        """
        spans = []
        stack: list[tuple] = []       # open start records, innermost last
        unwound = truncated = 0
        for record in self.trace._events:
            kind = record[1]
            if kind in SPAN_PAIRS:
                stack.append(record)
                continue
            start_kind = _START_OF.get(kind)
            if start_kind is None:
                continue
            depth = len(stack) - 1
            while depth >= 0 and stack[depth][1] != start_kind:
                depth -= 1
            if depth < 0:
                truncated += 1
                continue
            start = stack[depth]
            unwound += len(stack) - depth - 1
            del stack[depth:]
            args = dict(zip(start[2], start[3:]))
            name = SPAN_PAIRS[start_kind][1].format_map(args)
            spans.append((name, start[0], record[0], depth, args))
        dropped = sum(self.trace.dropped_count(done)
                      for done, _ in SPAN_PAIRS.values())
        return spans, {"dropped": dropped, "open": unwound + len(stack),
                       "truncated": truncated}

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Roll everything into one deterministic dict."""
        for collector in list(self._collectors):
            collector(self)
        return {
            "enabled": self.enabled,
            "now_ns": self.trace._clock.now_ns,
            "metrics": self.metrics.snapshot(),
            "spans": self._span_summary(),
        }

    def _span_summary(self) -> dict:
        """Per-name count and total/mean sim-ns of the retained spans,
        plus how many were dropped, are open or are truncated."""
        spans, unpaired = self._spans()
        by_name: dict[str, dict] = {}
        for name, start_ns, end_ns, _, _ in spans:
            agg = by_name.setdefault(name, {"count": 0, "total_ns": 0})
            agg["count"] += 1
            agg["total_ns"] += end_ns - start_ns
        for agg in by_name.values():
            agg["mean_ns"] = agg["total_ns"] / agg["count"]
        return {"recorded": len(spans), **unpaired,
                "by_name": dict(sorted(by_name.items()))}

    def export_chrome_trace(self) -> dict:
        """The retained spans as a ``chrome://tracing`` JSON object:
        complete events (``"ph": "X"``) with µs timestamps, all on one
        pid/tid, so the viewer nests them by containment."""
        spans, unpaired = self._spans()
        events = [{"name": name, "ph": "X", "ts": start_ns / 1000.0,
                   "dur": (end_ns - start_ns) / 1000.0, "pid": 0, "tid": 0,
                   "args": dict(args, depth=depth)}
                  for name, start_ns, end_ns, depth, args in spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"clock": "sim-ns", **unpaired}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"Observability({state}, {len(self.metrics)} metrics)"

