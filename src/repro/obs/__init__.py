"""Observability: metrics, sim-time spans, and exporters.

The paper's whole argument rests on *seeing* what the kernel and the NIC
actually did — E1 catches the refcount backend's failure by finding a
``swap_out`` of a registered page in the event trace.  This package is
the quantitative counterpart of that trace: per-subsystem counters,
gauges, and sim-ns latency histograms (the style U-Net and VMMC-2 used
to attribute microseconds to doorbell, DMA, and retransmit paths), plus
nestable simulated-time spans exportable as Chrome ``chrome://tracing``
JSON.

Each trace holds one :class:`Observability` facade (so one per kernel,
or one shared across a cluster).  A counted fact is written once, as a
trace record, and :meth:`Observability.count` derives its counters via
:mod:`repro.obs.counters`; anything else is a direct metric call at its
site.  Observability is **disabled by default** and the disabled path is
one ``if obs.enabled:`` branch per trace emit and per direct site, so
the data plane's fast path stays fast (benchmark E15 asserts this).

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
from repro.obs.spans import SpanRecord, SpanRecorder

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NS_BUCKETS", "SIZE_BUCKETS",
    "SpanRecord", "SpanRecorder",
    "Observability",
]


class Observability:
    """One kernel's (or cluster's) metrics registry + span recorder.

    ``enabled`` gates every emit.  Hot call sites read it once and skip
    all observability work when False — the shipped default — so the
    cost of carrying the instrumentation is one attribute load and one
    branch per site.  :meth:`enable`/:meth:`disable` flip it at runtime;
    metrics accumulated while enabled survive a disable (they are only
    dropped by :meth:`reset`).
    """

    def __init__(self, clock, enabled: bool = False,
                 span_maxlen: int = 65536) -> None:
        self.clock = clock
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(clock, maxlen=span_maxlen)
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
        """Drop every metric and span recorded so far."""
        self.metrics.reset()
        self.spans.reset()

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

    def span(self, name: str, **args):
        """Context manager timing a sim-time span (cheap shared no-op
        while disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return self.spans.span(name, **args)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Roll everything into one deterministic dict."""
        for collector in list(self._collectors):
            collector(self)
        return {
            "enabled": self.enabled,
            "now_ns": self.clock.now_ns,
            "metrics": self.metrics.snapshot(),
            "spans": self.spans.summary(),
        }

    def export_chrome_trace(self) -> dict:
        """The recorded spans as a ``chrome://tracing`` JSON object."""
        return self.spans.to_chrome()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (f"Observability({state}, {len(self.metrics)} metrics, "
                f"{len(self.spans)} spans)")


class _NullSpan:
    """Shared no-op context manager returned by ``span`` while disabled
    (no per-call allocation on the disabled path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()
