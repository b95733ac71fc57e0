"""Metric primitives: counters, gauges, and fixed-bin histograms.

The registry is deliberately small and dependency-free: DTM sweeps run
thousands of short simulations, so metric updates must be cheap (plain
attribute arithmetic, no locks, no label cartesian products) and the
results must be **mergeable** -- a sweep worker snapshots its registry
and the driver folds the snapshots together.

Merge semantics (chosen so that merging is associative and
commutative, which a property test asserts):

* counters add;
* gauges keep the *extreme* value (``max`` by default, ``min`` for
  gauges created with ``prefer="min"``) -- peak semantics, the right
  fold for "hottest temperature seen" style gauges;
* histograms with identical bin edges add per-bin counts and combine
  their running ``sum`` / ``min`` / ``max``.

Histogram bin semantics are half-open on the left, ``[edge_i,
edge_{i+1})``: a value exactly on an interior edge lands in the bin
*starting* at that edge.  Values below ``edges[0]`` land in the
underflow bin; values at or above ``edges[-1]`` land in the overflow
bin.  ``NaN`` observations are counted separately and never binned.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Mapping

import numpy as np

from repro.errors import TelemetryError

#: Default temperature bin edges [degC]: 1-K bins through the DTM
#: operating band, finer half-K bins across the trigger/emergency zone.
TEMPERATURE_EDGES: tuple[float, ...] = tuple(
    [80.0, 90.0, 95.0, 98.0, 99.0, 100.0]
    + [100.0 + 0.25 * i for i in range(1, 17)]  # 100.25 .. 104.0
    + [106.0, 110.0]
)

#: Default fetch-duty bin edges: one bin per eighth (the actuator's
#: quantization grid), offset so each quantized level is a bin start.
DUTY_EDGES: tuple[float, ...] = tuple(i / 8 for i in range(9))

#: Default per-sample latency bin edges [s] (log-spaced 1 us .. 100 ms).
LATENCY_EDGES: tuple[float, ...] = tuple(
    10.0 ** (-6 + 0.5 * i) for i in range(11)
)


def _first_extreme(current: float, values: np.ndarray, largest: bool):
    """``current`` folded with ``values`` by strict ``>`` (or ``<``).

    That is ``max``/``min`` applied one value at a time: a value only
    replaces a strictly smaller (larger) current one, so of equal values
    (``0.0`` and ``-0.0``) the first one stays, NaN values are passed
    over, and a NaN current value is never replaced.
    """
    finite = values[~np.isnan(values)]
    if current != current or not len(finite):
        return current
    best = finite.max() if largest else finite.min()
    if (best > current) if largest else (best < current):
        return float(finite[np.flatnonzero(finite == best)[0]])
    return current


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount

    def snapshot(self) -> dict:
        """Plain-data view of this counter."""
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value that also tracks its extreme.

    ``value`` is the last value set; ``extreme`` is the max (or min,
    for ``prefer="min"``) ever set.  Merging keeps the extreme, which
    is the only associative fold available without a global order on
    updates.
    """

    __slots__ = ("name", "prefer", "value", "extreme", "updates")

    kind = "gauge"

    def __init__(self, name: str, prefer: str = "max") -> None:
        if prefer not in ("max", "min"):
            raise TelemetryError("gauge prefer must be 'max' or 'min'")
        self.name = name
        self.prefer = prefer
        self.value: float | None = None
        self.extreme: float | None = None
        self.updates = 0

    def set(self, value: float) -> None:
        """Record a new reading."""
        self.value = value
        self.updates += 1
        if self.extreme is None:
            self.extreme = value
        elif self.prefer == "max":
            self.extreme = max(self.extreme, value)
        else:
            self.extreme = min(self.extreme, value)

    def set_many(self, values: np.ndarray) -> None:
        """``set`` each of ``values`` (a float64 array) in order."""
        if not len(values):
            return
        extreme = self.extreme
        if extreme is None:
            extreme, values = float(values[0]), values[1:]
        self.value = float(values[-1]) if len(values) else extreme
        self.updates += len(values) + (self.extreme is None)
        self.extreme = _first_extreme(extreme, values, self.prefer == "max")

    def snapshot(self) -> dict:
        """Plain-data view of this gauge."""
        return {
            "kind": self.kind,
            "value": self.value,
            "extreme": self.extreme,
            "prefer": self.prefer,
            "updates": self.updates,
        }


class Histogram:
    """A fixed-bin histogram with underflow/overflow bins.

    ``edges`` must be strictly increasing; ``len(edges) + 1`` bins are
    kept: ``(-inf, e0)``, ``[e0, e1)``, ..., ``[e_last, +inf)``.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max", "nan_count")

    kind = "histogram"

    def __init__(self, name: str, edges: Iterable[float]) -> None:
        edges = tuple(float(edge) for edge in edges)
        if len(edges) < 1:
            raise TelemetryError(f"histogram {name!r} needs at least one edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise TelemetryError(
                f"histogram {name!r} edges must be strictly increasing"
            )
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.nan_count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        if math.isnan(value):
            self.nan_count += 1
            return
        # bisect_right gives the half-open-left semantics: a value
        # exactly equal to edges[i] lands in the bin starting there.
        self.counts[bisect.bisect_right(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: np.ndarray) -> None:
        """``observe`` each of ``values`` (a float64 array) in order.

        The bins come from one ``searchsorted(side="right")``, the
        ``bisect_right`` of :meth:`observe`.  ``sum`` is a ``cumsum``
        seeded with the running sum, which adds in sample order as the
        per-value ``+=`` does (``np.sum`` would add pairwise).
        """
        nan = np.isnan(values)
        if nan.any():
            self.nan_count += int(np.count_nonzero(nan))
            values = values[~nan]
        if not len(values):
            return
        bins = np.bincount(
            np.searchsorted(self.edges, values, side="right"),
            minlength=len(self.counts),
        )
        self.counts = [a + b for a, b in zip(self.counts, bins.tolist())]
        self.count += len(values)
        # Quietly, like float ``+=``: inf + -inf is NaN, overflow is inf.
        with np.errstate(invalid="ignore", over="ignore"):
            running = np.cumsum(np.concatenate(([self.sum], values)))
        self.sum = float(running[-1])
        self.min = _first_extreme(self.min, values, False)
        self.max = _first_extreme(self.max, values, True)

    @property
    def mean(self) -> float:
        """Mean of all observations (``nan`` when empty)."""
        return self.sum / self.count if self.count else math.nan

    def bin_label(self, index: int) -> str:
        """Human-readable range of bin ``index``."""
        if index == 0:
            return f"(-inf, {self.edges[0]:g})"
        if index == len(self.edges):
            return f"[{self.edges[-1]:g}, +inf)"
        return f"[{self.edges[index - 1]:g}, {self.edges[index]:g})"

    def quantile(self, q: float) -> float:
        """Approximate quantile from bin boundaries (conservative: the
        upper edge of the bin containing the q-th observation)."""
        if not 0.0 <= q <= 1.0:
            raise TelemetryError("quantile must be in [0, 1]")
        if not self.count:
            return math.nan
        target = q * self.count
        running = 0
        for index, bucket in enumerate(self.counts):
            running += bucket
            if running >= target and bucket:
                if index >= len(self.edges):
                    return self.max
                return self.edges[index]
        return self.max

    def snapshot(self) -> dict:
        """Plain-data view of this histogram."""
        return {
            "kind": self.kind,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "nan_count": self.nan_count,
        }


class MetricsRegistry:
    """A flat namespace of metrics, snapshot- and merge-able."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- access --------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def names(self) -> tuple[str, ...]:
        """Registered metric names, sorted."""
        return tuple(sorted(self._metrics))

    def _register(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, kind):
                raise TelemetryError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._register(name, Counter, lambda: Counter(name))

    def gauge(self, name: str, prefer: str = "max") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._register(name, Gauge, lambda: Gauge(name, prefer))

    def histogram(self, name: str, edges: Iterable[float]) -> Histogram:
        """Get or create the histogram ``name`` with ``edges``."""
        metric = self._register(name, Histogram, lambda: Histogram(name, edges))
        if metric.edges != tuple(float(e) for e in edges):
            raise TelemetryError(
                f"histogram {name!r} already registered with different edges"
            )
        return metric

    # -- snapshot / merge ----------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Plain-data (JSON-serializable) view of every metric."""
        return {
            name: metric.snapshot()
            for name, metric in sorted(self._metrics.items())
        }

    def merge_snapshot(self, other: Mapping[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this registry."""
        for name, data in other.items():
            kind = data.get("kind")
            if kind == "counter":
                self.counter(name).inc(data["value"])
            elif kind == "gauge":
                gauge = self.gauge(name, prefer=data.get("prefer", "max"))
                extreme = data.get("extreme")
                if extreme is not None:
                    # Merging keeps the extreme; the merged "last value"
                    # is defined as the extreme too -- merged updates
                    # have no global ordering, and pinning value to the
                    # extreme keeps snapshot merging associative.
                    gauge.set(extreme)
                    gauge.value = gauge.extreme
                    gauge.updates += data.get("updates", 1) - 1
            elif kind == "histogram":
                histogram = self.histogram(name, data["edges"])
                counts = data["counts"]
                if len(counts) != len(histogram.counts):
                    raise TelemetryError(
                        f"histogram {name!r}: mismatched bin count in merge"
                    )
                for index, bucket in enumerate(counts):
                    histogram.counts[index] += bucket
                histogram.count += data["count"]
                histogram.sum += data["sum"]
                histogram.nan_count += data.get("nan_count", 0)
                if data.get("min") is not None:
                    histogram.min = min(histogram.min, data["min"])
                if data.get("max") is not None:
                    histogram.max = max(histogram.max, data["max"])
            else:
                raise TelemetryError(f"unknown metric kind {kind!r} for {name!r}")


def merge_snapshots(*snapshots: Mapping[str, dict]) -> dict[str, dict]:
    """Fold any number of registry snapshots into one (associative)."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()
