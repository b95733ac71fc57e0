"""Span profiling with monotonic clocks.

``Profiler.span(name)`` is a re-entrant context manager measuring
wall-clock time on :func:`time.perf_counter` (monotonic, highest
resolution available).  Per span name it accumulates call count, total
/ min / max duration, and the *self* time (total minus time spent in
child spans), so nested instrumentation -- ``engine.run`` around
thousands of ``dtm.on_sample`` and ``thermal.advance`` spans --
apportions time correctly.

The disabled path matters more than the enabled one: every
instrumented call site in the engine checks a null object, so
:class:`NullProfiler` hands out one shared, stateless span whose
``__enter__`` / ``__exit__`` do nothing.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.errors import TelemetryError


class SpanStats:
    """Accumulated timing for one span name."""

    __slots__ = ("name", "count", "total", "self_total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        #: Total minus time attributed to child spans.
        self.self_total = 0.0
        self.min = math.inf
        self.max = 0.0

    @property
    def mean(self) -> float:
        """Mean duration per call [s] (``nan`` when never entered)."""
        return self.total / self.count if self.count else math.nan

    def snapshot(self) -> dict:
        """Plain-data view of this span's statistics."""
        return {
            "count": self.count,
            "total_seconds": self.total,
            "self_seconds": self.self_total,
            "mean_seconds": None if not self.count else self.mean,
            "min_seconds": None if not self.count else self.min,
            "max_seconds": self.max,
        }


class _Span:
    """One active (or reusable) timing scope."""

    __slots__ = ("_profiler", "_name", "_start", "_child_time")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0
        self._child_time = 0.0

    def __enter__(self) -> "_Span":
        self._child_time = 0.0
        self._profiler._stack.append(self)
        self._start = self._profiler._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = self._profiler._clock() - self._start
        profiler = self._profiler
        stack = profiler._stack
        stack.pop()
        if stack:
            stack[-1]._child_time += elapsed
        stats = profiler._stats.get(self._name)
        if stats is None:
            stats = profiler._stats[self._name] = SpanStats(self._name)
        stats.count += 1
        stats.total += elapsed
        stats.self_total += elapsed - self._child_time
        if elapsed < stats.min:
            stats.min = elapsed
        if elapsed > stats.max:
            stats.max = elapsed


class Profiler:
    """Collects :class:`SpanStats` per span name."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stats: dict[str, SpanStats] = {}
        self._stack: list[_Span] = []

    def span(self, name: str) -> _Span:
        """A context manager timing one scope under ``name``."""
        return _Span(self, name)

    def time(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn``, each call of it inside a span named ``name``."""
        return lambda *args, **kwargs: self.time(name, fn, *args, **kwargs)

    # -- read side -----------------------------------------------------------
    def stats(self, name: str) -> SpanStats:
        """Statistics for one span name (raises if never entered)."""
        try:
            return self._stats[name]
        except KeyError:
            raise TelemetryError(f"no span named {name!r} was recorded") from None

    def names(self) -> tuple[str, ...]:
        """Recorded span names, sorted."""
        return tuple(sorted(self._stats))

    def snapshot(self) -> dict[str, dict]:
        """Plain-data view of every span, keyed by name."""
        return {
            name: stats.snapshot()
            for name, stats in sorted(self._stats.items())
        }

    def clear(self) -> None:
        """Forget all recorded spans."""
        self._stats.clear()
        self._stack.clear()

    def report(self) -> str:
        """Aligned text table of span statistics, slowest first."""
        if not self._stats:
            return "(no spans recorded)"
        rows = sorted(
            self._stats.values(), key=lambda s: s.total, reverse=True
        )
        width = max(len(stats.name) for stats in rows)
        lines = [
            f"{'span':<{width}}  {'calls':>8}  {'total':>10}  "
            f"{'self':>10}  {'mean':>10}"
        ]
        for stats in rows:
            lines.append(
                f"{stats.name:<{width}}  {stats.count:>8}  "
                f"{stats.total * 1e3:>8.2f}ms  "
                f"{stats.self_total * 1e3:>8.2f}ms  "
                f"{stats.mean * 1e6:>8.2f}us"
            )
        return "\n".join(lines)


class _NullSpan:
    """A do-nothing context manager, shared by every disabled call site."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullProfiler:
    """The no-op stand-in used when profiling is disabled."""

    enabled = False

    def span(self, name: str) -> _NullSpan:
        """Always the same stateless no-op span."""
        return _NULL_SPAN

    def time(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` directly."""
        return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` itself: its calls pay for no span."""
        return fn

    def names(self) -> tuple[str, ...]:
        """No spans are ever recorded."""
        return ()

    def snapshot(self) -> dict[str, dict]:
        """Always empty."""
        return {}

    def clear(self) -> None:
        """Nothing to clear."""

    def report(self) -> str:
        """A fixed placeholder."""
        return "(profiling disabled)"


#: Shared no-op profiler instance.
NULL_PROFILER = NullProfiler()
