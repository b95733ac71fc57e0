"""The `Telemetry` facade and its zero-overhead null stand-in.

One :class:`Telemetry` instance observes one engine run (or, shared
across a sweep, many runs tagged with their benchmark/policy context).
It bundles the three collectors --

* :class:`~repro.telemetry.metrics.MetricsRegistry` (counters, gauges,
  fixed-bin histograms),
* :class:`~repro.telemetry.trace.TraceRecorder` (per-sample DTM
  decision records plus the discrete event stream),
* :class:`~repro.telemetry.profiler.Profiler` (span timings)

-- behind the narrow surface the engines call: ``span``, ``event``,
``record_control`` / ``record_block`` (``record_sample`` per sample),
``set_context``.

**The default is off.**  Every instrumented component takes
``telemetry=None`` and substitutes :data:`NULL_TELEMETRY`, whose
``enabled`` flag is ``False`` and whose methods do nothing; hot loops
hoist ``telemetry.enabled`` into a local and skip record assembly
entirely, so simulation outputs stay bit-identical to the
un-instrumented library (asserted by tests) and the fast engine slows
by well under the 2% budget (asserted by a benchmark).
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import TelemetryConfig
from repro.telemetry.metrics import (
    DUTY_EDGES,
    LATENCY_EDGES,
    TEMPERATURE_EDGES,
    MetricsRegistry,
)
from repro.telemetry.profiler import NULL_PROFILER, Profiler, _NullSpan
from repro.telemetry.trace import (
    COLUMN,
    TEXT_FIELDS,
    TraceBlock,
    TraceEvent,
    TraceRecord,
    TraceRecorder,
)

_NULL_SPAN = _NullSpan()

#: The controller half of a sample no controller staged.
NO_CONTROL = (-1, *[math.nan] * 8, 0, "")


class Telemetry:
    """Live observability for one engine run (or one shared sweep)."""

    enabled = True

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.metrics = MetricsRegistry()
        self.trace = TraceRecorder(
            capacity=self.config.trace_capacity,
            mode=self.config.trace_mode,
            event_capacity=self.config.event_capacity,
        )
        self.profiler = Profiler() if self.config.profile else NULL_PROFILER
        self.benchmark = ""
        self.policy = ""
        #: Free-form run metadata (block names, sample cycles, seed...)
        #: carried into exported trace headers.
        self.meta: dict = {}
        #: Controller-side fields staged by the DTM manager, merged
        #: into the next sample record by the engine.
        self._pending_control: tuple | None = None
        # Pre-resolved metric handles (no dict lookup per sample).
        self._h_temp = self.metrics.histogram(
            "engine.max_temperature_c", TEMPERATURE_EDGES
        )
        self._h_duty = self.metrics.histogram("engine.duty", DUTY_EDGES)
        self._h_latency = self.metrics.histogram(
            "engine.sample_latency_seconds", LATENCY_EDGES
        )
        self._c_samples = self.metrics.counter("engine.samples")
        self._c_emergency = self.metrics.counter("engine.emergency_samples")
        self._c_stress = self.metrics.counter("engine.stress_samples")
        self._g_peak_temp = self.metrics.gauge("engine.peak_temperature_c")
        self._g_peak_power = self.metrics.gauge("engine.peak_chip_power_w")

    # -- context -------------------------------------------------------------
    def set_context(self, benchmark: str, policy: str) -> None:
        """Tag subsequent records with their run's benchmark/policy."""
        self.benchmark = benchmark
        self.policy = policy

    def span(self, name: str):
        """A profiler span (no-op when profiling is disabled)."""
        return self.profiler.span(name)

    def event(
        self, kind: str, sample_index: int, reason: str = "", **data
    ) -> TraceEvent:
        """Record a discrete event on the trace's event stream."""
        self.metrics.counter(f"events.{kind}").inc()
        return self.trace.event(kind, sample_index, reason, **data)

    # -- the per-sample path -------------------------------------------------
    def record_control(
        self,
        sample_index: int,
        measurement: float = math.nan,
        error: float = math.nan,
        p_term: float = math.nan,
        i_term: float = math.nan,
        d_term: float = math.nan,
        pre_saturation: float = math.nan,
        post_saturation: float = math.nan,
        duty: float = math.nan,
        stall_cycles: int = 0,
        failsafe_state: str = "",
    ) -> None:
        """Stage the controller-side half of the next sample record.

        Called by :class:`~repro.dtm.manager.DTMManager` from inside
        ``on_sample``; the engine completes and emits the record with
        the plant-side fields.  The half is a tuple in keyword order.
        """
        self._pending_control = (
            sample_index, measurement, error, p_term, i_term, d_term,
            pre_saturation, post_saturation, duty, stall_cycles,
            failsafe_state,
        )

    def take_control(self) -> tuple | None:
        """Detach the controller half staged by :meth:`record_control`.

        For engines that emit a sample's record after later samples ran
        (the deferred threshold pass of :mod:`repro.sim.stage`): the
        halves taken here are handed back in :meth:`record_block`'s
        columns at emission time.
        """
        pending = self._pending_control
        self._pending_control = None
        return pending

    def record_sample(
        self,
        index: int,
        cycle: int,
        sensed: float,
        max_temp: float,
        block_temps,
        chip_power: float,
        ipc: float,
        duty: float,
        emergency_fraction: float = 0.0,
        stress_fraction: float = 0.0,
        latency_seconds: float = math.nan,
    ) -> None:
        """Emit one sample: the per-sample form of :meth:`record_block`.

        The controller half is the one staged by the latest
        :meth:`record_control` (NaN terms when none was).  The record
        goes to the same trace store; the metrics take the per-value
        updates that :meth:`record_block`'s bulk ones are tested against.
        """
        control = self.take_control() or NO_CONTROL
        self.trace.record(TraceRecord(
            index, cycle, self.benchmark, self.policy, sensed, max_temp,
            tuple(float(t) for t in block_temps), chip_power, ipc,
            *control[1:8], duty, control[9], control[10],
            emergency_fraction, stress_fraction,
        ))
        self._h_temp.observe(max_temp)
        self._h_duty.observe(duty)
        if not math.isnan(latency_seconds):
            self._h_latency.observe(latency_seconds)
        self._c_samples.inc()
        if emergency_fraction > 0.0:
            self._c_emergency.inc()
        if stress_fraction > 0.0:
            self._c_stress.inc()
        self._g_peak_temp.set(max_temp)
        self._g_peak_power.set(chip_power)

    def record_block(self, floats, ints, failsafe, latency) -> None:
        """Emit a chunk of samples, in order, and update the metrics.

        ``floats`` and ``ints`` are the :class:`~repro.telemetry.trace.
        TraceBlock` columns, ``failsafe`` the per-row failsafe state and
        ``latency`` the per-row sample latency in seconds (NaN for an
        untimed sample, which the latency histogram skips).  Benchmark
        and policy come from the context.  The trace may keep ``floats``
        and ``ints`` as they are, so the caller must not write them
        afterwards.
        """
        text = np.empty((len(ints), len(TEXT_FIELDS)), dtype=object)
        text[:, 0] = self.benchmark
        text[:, 1] = self.policy
        text[:, 2] = failsafe
        self.trace.record_many(TraceBlock(floats, ints, text))
        max_temp = floats[:, COLUMN["max_temp"]]
        self._h_temp.observe_many(max_temp)
        self._h_duty.observe_many(floats[:, COLUMN["duty"]])
        self._h_latency.observe_many(latency[~np.isnan(latency)])
        self._c_samples.inc(len(ints))
        self._c_emergency.inc(
            int(np.count_nonzero(floats[:, COLUMN["emergency_fraction"]] > 0))
        )
        self._c_stress.inc(
            int(np.count_nonzero(floats[:, COLUMN["stress_fraction"]] > 0))
        )
        self._g_peak_temp.set_many(max_temp)
        self._g_peak_power.set_many(floats[:, COLUMN["chip_power"]])

    # -- read side -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Metrics + profiler snapshots (JSON-serializable)."""
        return {
            "benchmark": self.benchmark,
            "policy": self.policy,
            "metrics": self.metrics.snapshot(),
            "spans": self.profiler.snapshot(),
            "trace": {
                "retained": len(self.trace),
                "emitted": self.trace.emitted,
                "mode": self.trace.mode,
                "stride": self.trace.stride,
                "events": len(self.trace.events),
                "events_dropped": self.trace.events.dropped,
            },
        }

    def clear(self) -> None:
        """Reset every collector (metrics keep their registrations)."""
        self.trace.clear()
        self.profiler.clear()
        self._pending_control = None


class NullTelemetry:
    """The disabled default: every operation is a no-op.

    ``enabled`` is ``False`` so hot paths can skip record assembly with
    a single attribute test; the methods still exist so cold paths
    (event emission on a failsafe transition, span wrappers) can call
    through unconditionally.
    """

    enabled = False
    benchmark = ""
    policy = ""
    metrics = None
    trace = None
    meta = None
    profiler = NULL_PROFILER

    def set_context(self, benchmark: str, policy: str) -> None:
        """Ignored."""

    def span(self, name: str):
        """Always the shared no-op span."""
        return _NULL_SPAN

    def event(self, kind: str, sample_index: int, reason: str = "", **data):
        """Ignored; returns ``None``."""
        return None

    def record_control(self, sample_index: int, **fields) -> None:
        """Ignored."""

    def take_control(self) -> None:
        """Nothing is ever staged."""
        return None

    def snapshot(self) -> dict:
        """A fixed empty snapshot."""
        return {"metrics": {}, "spans": {}, "trace": {}}

    def clear(self) -> None:
        """Nothing to clear."""


#: The process-wide disabled-telemetry instance (stateless, shareable).
NULL_TELEMETRY = NullTelemetry()


def ensure_telemetry(telemetry) -> Telemetry | NullTelemetry:
    """Map ``None`` to :data:`NULL_TELEMETRY`; pass everything else through."""
    return NULL_TELEMETRY if telemetry is None else telemetry


def merge_telemetry(sink, source) -> None:
    """Fold one run's local telemetry into a shared sweep sink.

    Experiment drivers that need per-run trace isolation (e.g. to pull
    one policy's temperature series out cleanly) record into a local
    :class:`Telemetry` and fold it into the caller's shared sink
    afterwards: the retained record blocks and the events are appended
    to the sink's recorder (subject to its own retention policy) and
    metrics merge under the registry's associative fold.  Span timings
    are per-process wall-clock and are deliberately not merged.

    No-op when ``sink`` is ``None`` or disabled.
    """
    sink = ensure_telemetry(sink)
    if not sink.enabled or sink is source:
        return
    for block in source.trace.blocks():
        sink.trace.record_many(block)
    for event in source.trace.events:
        sink.trace.events.append(event)
    sink.metrics.merge_snapshot(source.metrics.snapshot())
    if source.meta:
        sink.meta.update(source.meta)
