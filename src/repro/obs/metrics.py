"""Metric primitives: counters, gauges, histograms, and their registry.

Names are hierarchical dotted paths (``via.nic.retransmits``,
``hw.dma.burst_bytes``) so a snapshot groups naturally by subsystem.
Histograms use fixed upper-bound buckets — the defaults cover simulated
nanoseconds from sub-microsecond doorbell writes to multi-millisecond
page-ins (:data:`NS_BUCKETS`) and transfer sizes from cache lines to
multi-megabyte RDMA (:data:`SIZE_BUCKETS`).

All state is plain integers/floats updated in O(1); a snapshot is the
only place anything is formatted.  Determinism: snapshots sort by metric
name and contain no host time, so the same seeded workload produces the
same snapshot byte for byte.
"""

from __future__ import annotations

import bisect
from typing import Iterator

#: Default sim-ns latency buckets: 100 ns .. 1 s, roughly 1-3-10 spaced.
NS_BUCKETS: tuple[int, ...] = (
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000,
    1_000_000, 3_000_000, 10_000_000, 100_000_000, 1_000_000_000,
)

#: Default size buckets (bytes): one cache line up to 4 MiB.
SIZE_BUCKETS: tuple[int, ...] = (
    64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
)


class Metric:
    """Base class: a named observable."""

    kind = "metric"

    def __init__(self, name: str) -> None:
        self.name = name

    def snapshot(self):
        """This metric's current value as a JSON-safe object."""
        raise NotImplementedError

    def reset(self) -> None:
        """Zero the metric in place."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.snapshot()!r})"


class Counter(Metric):
    """A monotonically increasing integer."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative — counters only go up)."""
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n

    def snapshot(self) -> int:
        return self.value

    def reset(self) -> None:
        self.value = 0


class Gauge(Metric):
    """A point-in-time value; remembers its extremes."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.value: float = 0
        self.max_value: float | None = None
        self.min_value: float | None = None

    def set(self, value: float) -> None:
        """Set the current value, updating the high/low water marks."""
        self.value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if self.min_value is None or value < self.min_value:
            self.min_value = value

    def inc(self, n: float = 1) -> None:
        """Adjust the current value by ``+n``."""
        self.set(self.value + n)

    def snapshot(self) -> dict:
        return {"value": self.value, "max": self.max_value,
                "min": self.min_value}

    def reset(self) -> None:
        self.value = 0
        self.max_value = None
        self.min_value = None


class Histogram(Metric):
    """Fixed-bucket histogram with count/sum/min/max.

    ``buckets`` are ascending inclusive upper bounds; one implicit
    overflow bucket catches everything larger.  ``observe`` is a bisect
    plus three integer updates — cheap enough for per-packet use.
    """

    kind = "histogram"

    def __init__(self, name: str,
                 buckets: tuple = NS_BUCKETS) -> None:
        super().__init__(name)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram {name}: buckets must be ascending, "
                f"got {buckets!r}")
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum: float = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        labels = [f"le_{b}" for b in self.buckets] + ["inf"]
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": dict(zip(labels, self.counts)),
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None


class MetricsRegistry:
    """Get-or-create store of metrics keyed by dotted name.

    A name is permanently bound to its first-created kind — asking for
    ``counter("x")`` after ``gauge("x")`` is a programming error and
    raises, so two subsystems cannot silently share one name with
    different semantics.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get(self, name: str, cls, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, **kwargs)
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already exists as {metric.kind}, "
                f"requested {cls.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        """Get-or-create a :class:`Counter`."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get-or-create a :class:`Gauge`."""
        return self._get(name, Gauge)

    def histogram(self, name: str, buckets: tuple = NS_BUCKETS) -> Histogram:
        """Get-or-create a :class:`Histogram` (``buckets`` is only used
        on first creation)."""
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, buckets=buckets)
        elif type(metric) is not Histogram:
            raise TypeError(
                f"metric {name!r} already exists as {metric.kind}, "
                f"requested histogram")
        return metric

    def get(self, name: str) -> Metric | None:
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def snapshot(self) -> dict:
        """``{name: value}`` for every metric, sorted by name."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    def reset(self) -> None:
        """Zero every metric in place (names and kinds survive)."""
        for metric in self._metrics.values():
            metric.reset()

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        return name in self._metrics
