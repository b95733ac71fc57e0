"""Telemetry end-to-end: engine wiring, compat shims, exports, CLI.

The two load-bearing guarantees:

1. **observation-only** -- a telemetry-enabled run produces
   bit-identical simulation results to a disabled one;
2. **reconstruction** -- the retained trace carries enough to rebuild
   the Figure-4 curves (temperature + duty series) and the emergency
   episodes without ``record_history``.
"""

import json
import math

import numpy as np
import pytest

from repro.__main__ import main as repro_main
from repro.config import DTMConfig, FailsafeConfig, TelemetryConfig
from repro.dtm.failsafe import FailsafeGuard
from repro.dtm.manager import DTMManager
from repro.dtm.policies import make_policy
from repro.errors import ConfigError, FailsafeEngaged
from repro.faults import FaultSchedule, FaultWindow
from repro.sim.parallel import matrix_specs, run_specs
from repro.sim.sweep import run_one, run_suite
from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    emergency_episodes,
    merge_telemetry,
    read_trace_jsonl,
    write_metrics_json,
    write_trace_csv,
    write_trace_jsonl,
)
from repro.thermal.floorplan import Floorplan


def _fields(result):
    return (
        result.cycles,
        result.instructions,
        result.ipc,
        result.max_temperature,
        result.emergency_fraction,
        result.stress_fraction,
        result.mean_chip_power,
        result.energy_joules,
    )


class TestObservationOnly:
    def test_enabled_run_bit_identical_to_disabled(self):
        disabled = run_one("gcc", "pid", instructions=300_000)
        telemetry = Telemetry()
        enabled = run_one(
            "gcc", "pid", instructions=300_000, telemetry=telemetry
        )
        assert _fields(enabled) == _fields(disabled)
        assert len(telemetry.trace.records()) > 0

    def test_bit_identical_under_faults_and_failsafe(self):
        schedule = FaultSchedule(
            7,
            dropout_rate=0.05,
            spike_rate=0.02,
            sensor_stuck_windows=[FaultWindow(40, 80, value=101.0)],
        )
        kwargs = dict(
            instructions=300_000,
            fault_schedule=schedule,
            failsafe=FailsafeConfig(),
        )
        disabled = run_one("gcc", "pid", **kwargs)
        enabled = run_one("gcc", "pid", telemetry=Telemetry(), **kwargs)
        assert _fields(enabled) == _fields(disabled)

    def test_null_telemetry_surface(self):
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.event("fault", 0) is None
        with NULL_TELEMETRY.span("x"):
            pass
        assert NULL_TELEMETRY.snapshot()["metrics"] == {}


class TestTraceReconstruction:
    def test_trace_matches_history(self):
        """TraceRecord series == History series, sample for sample."""
        telemetry = Telemetry(
            TelemetryConfig(trace_mode="ring", trace_capacity=65_536)
        )
        result = run_one(
            "gcc",
            "pid",
            instructions=300_000,
            record_history=True,
            telemetry=telemetry,
        )
        history = result.history
        records = telemetry.trace.records()
        assert len(records) == len(history.max_temp)
        np.testing.assert_allclose(
            [r.max_temp for r in records], history.max_temp
        )
        np.testing.assert_allclose([r.duty for r in records], history.duty)
        np.testing.assert_allclose(
            [r.chip_power for r in records], history.chip_power
        )

    def test_controller_terms_recorded(self):
        telemetry = Telemetry()
        run_one("gcc", "pid", instructions=200_000, telemetry=telemetry)
        record = telemetry.trace.records()[-1]
        assert not math.isnan(record.error)
        assert not math.isnan(record.p_term)
        assert not math.isnan(record.i_term)
        assert not math.isnan(record.d_term)
        assert 0.0 <= record.post_saturation <= 1.0
        # PID output = saturated sum of terms.
        raw = record.pre_saturation
        assert record.post_saturation == pytest.approx(
            min(1.0, max(0.0, raw))
        )

    def test_episode_accounting_matches_emergency_fraction(self):
        """A run with emergency time yields at least one episode."""
        telemetry = Telemetry(
            TelemetryConfig(trace_mode="ring", trace_capacity=65_536)
        )
        result = run_one("gcc", "none", instructions=500_000,
                         telemetry=telemetry)
        episodes = emergency_episodes(telemetry.trace.records())
        if result.emergency_fraction > 0:
            assert episodes
        else:
            assert not episodes

    def test_latency_histogram_counts_every_sample(self):
        telemetry = Telemetry()
        run_one("gcc", "pid", instructions=200_000, telemetry=telemetry)
        latency = telemetry.metrics["engine.sample_latency_seconds"]
        assert latency.count == len(telemetry.trace.records())
        assert telemetry.metrics["engine.samples"].value == latency.count

    def test_profiler_spans_cover_engine_phases(self):
        telemetry = Telemetry()
        run_one("gcc", "pid", instructions=200_000, telemetry=telemetry)
        names = telemetry.profiler.names()
        assert "engine.run" in names
        assert "dtm.on_sample" in names
        assert "thermal.advance" in names
        run_span = telemetry.profiler.stats("engine.run")
        sample_span = telemetry.profiler.stats("dtm.on_sample")
        assert run_span.count == 1
        assert sample_span.count == len(telemetry.trace.records())
        assert run_span.total >= sample_span.total

    def test_profile_disabled_by_config(self):
        telemetry = Telemetry(TelemetryConfig(profile=False))
        run_one("gcc", "pid", instructions=200_000, telemetry=telemetry)
        assert telemetry.profiler.names() == ()
        assert telemetry.trace.records()  # tracing unaffected


class TestEventStreamMigration:
    def _faulted_watchdog_run(self, telemetry=None):
        schedule = FaultSchedule(
            3,
            dropout_rate=0.0,
            sensor_stuck_windows=[FaultWindow(10, 400, value=104.0)],
        )
        return run_one(
            "gcc",
            "pi",
            instructions=300_000,
            fault_schedule=schedule,
            failsafe=FailsafeConfig(),
            telemetry=telemetry,
        )

    def test_failsafe_transitions_on_shared_stream(self):
        telemetry = Telemetry()
        self._faulted_watchdog_run(telemetry)
        transitions = telemetry.trace.events.of_kind("failsafe_transition")
        assert transitions
        assert transitions[0].data["state"] == "failsafe"
        faults = telemetry.trace.events.of_kind("fault")
        assert any(e.data["channel"] == "sensor.stuck" for e in faults)

    def test_event_counters_increment(self):
        telemetry = Telemetry()
        self._faulted_watchdog_run(telemetry)
        assert telemetry.metrics["events.fault"].value >= 1
        assert telemetry.metrics["events.failsafe_transition"].value >= 1

    def test_guard_events_compat_shim(self):
        """The historical ``events`` list still materializes."""
        guard = FailsafeGuard(FailsafeConfig())
        guard.gate(104.0, 0)
        events = guard.events
        assert events
        assert isinstance(events[0], FailsafeEngaged)
        assert events[0].state == "failsafe"
        # Mutating the materialized list cannot corrupt the guard.
        events.clear()
        assert guard.events
        assert len(guard.event_log) == 1

    def test_guard_event_log_bounded(self):
        config = FailsafeConfig(max_event_log=2)
        guard = FailsafeGuard(config)
        sample = 0
        for index in range(20):
            # Unique readings so stuck detection never kicks in.
            guard.gate(104.0 + 0.001 * index, sample)  # engage
            sample += 1
            for cool in range(config.rearm_samples):
                guard.gate(80.0 + 0.001 * sample, sample)  # re-arm
                sample += 1
        assert len(guard.event_log) == 2
        assert guard.event_log.dropped > 0


class TestManagerRegressions:
    def _manager(self, failsafe=None):
        policy = make_policy("pi", Floorplan.default(), DTMConfig())
        return DTMManager(policy, DTMConfig(), failsafe=failsafe)

    def test_failsafe_events_returns_tuple_copy(self):
        """Regression: the accessor must not expose internal state."""
        manager = self._manager(failsafe=FailsafeConfig())
        manager.on_sample(104.0)
        events = manager.failsafe_events
        assert isinstance(events, tuple)
        assert events
        # A tuple cannot be mutated; repeated access re-materializes
        # (FailsafeEngaged has identity equality, so compare strings).
        again = manager.failsafe_events
        assert [str(e) for e in again] == [str(e) for e in events]

    def test_failsafe_events_empty_without_guard(self):
        assert self._manager().failsafe_events == ()

    def test_engaged_fraction_zero_samples(self):
        """No samples yet -> 0.0, not ZeroDivisionError."""
        assert self._manager().engaged_fraction == 0.0

    def test_manager_stages_control_half(self):
        telemetry = Telemetry()
        policy = make_policy("pi", Floorplan.default(), DTMConfig())
        manager = DTMManager(policy, DTMConfig(), telemetry=telemetry)
        manager.on_sample(101.0)
        control = telemetry.take_control()
        assert control is not None
        assert control[0] == 0  # sample_index, the first keyword


class TestSweepTelemetry:
    def test_run_suite_shares_one_stream(self):
        telemetry = Telemetry()
        results = run_suite(
            ["pid"],
            benchmarks=["gzip"],
            instructions=150_000,
            telemetry=telemetry,
        )
        assert ("gzip", "pid") in results
        contexts = {
            (r.benchmark, r.policy) for r in telemetry.trace.records()
        }
        assert ("gzip", "pid") in contexts
        assert ("gzip", "none") in contexts  # baseline traced too
        assert telemetry.profiler.stats("sweep.run_suite").count == 1
        assert telemetry.profiler.stats("engine.run").count == 2

    def test_merge_telemetry_folds_runs(self):
        sink = Telemetry()
        local = Telemetry()
        run_one("gzip", "pid", instructions=150_000, telemetry=local)
        merge_telemetry(sink, local)
        assert len(sink.trace.records()) == len(local.trace.records())
        assert (
            sink.metrics["engine.samples"].value
            == local.metrics["engine.samples"].value
        )
        merge_telemetry(None, local)  # no-op, must not raise
        merge_telemetry(sink, sink)  # self-merge is a no-op
        assert len(sink.trace.records()) == len(local.trace.records())


class TestExportRoundTrip:
    def _traced(self):
        telemetry = Telemetry()
        run_one("gcc", "pid", instructions=200_000, telemetry=telemetry)
        telemetry.event("fault", 5, "sensor.spike", channel="sensor.spike")
        return telemetry

    def test_jsonl_round_trip(self, tmp_path):
        telemetry = self._traced()
        path = tmp_path / "trace.jsonl"
        lines = write_trace_jsonl(telemetry.trace, path, meta=telemetry.meta)
        parsed = read_trace_jsonl(path)
        records = telemetry.trace.records()
        assert lines == 1 + len(records) + 1
        assert parsed.meta["schema"] == "repro.trace/v1"
        assert parsed.meta["benchmark"] == "gcc"
        assert len(parsed.records) == len(records)
        first, roundtrip = records[0], parsed.records[0]
        assert roundtrip.max_temp == first.max_temp
        assert roundtrip.block_temps == first.block_temps
        assert roundtrip.duty == first.duty
        assert parsed.events[0].data["channel"] == "sensor.spike"

    def test_jsonl_nan_round_trip(self, tmp_path):
        """NaN fields (non-CT policies) survive as null and back."""
        telemetry = Telemetry()
        run_one("gcc", "toggle1", instructions=150_000, telemetry=telemetry)
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(telemetry.trace, path)
        for line in path.read_text().splitlines():
            json.loads(line)  # strictly valid JSON, no bare NaN
        parsed = read_trace_jsonl(path)
        assert math.isnan(parsed.records[0].p_term)

    def test_csv_export(self, tmp_path):
        telemetry = self._traced()
        path = tmp_path / "trace.csv"
        rows = write_trace_csv(
            telemetry.trace, path, block_names=telemetry.meta["block_names"]
        )
        lines = path.read_text().splitlines()
        assert len(lines) == rows + 1
        assert "temp_int_exec" in lines[0]

    def test_metrics_json(self, tmp_path):
        telemetry = self._traced()
        path = tmp_path / "metrics.json"
        write_metrics_json(telemetry.snapshot(), path)
        data = json.loads(path.read_text())
        assert data["metrics"]["engine.samples"]["value"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_metrics_json_reproduces_but_for_the_latency_histogram(
        self, tmp_path, jobs
    ):
        """``engine.sample_latency_seconds`` is host wall-clock time;
        every other exported metric is a function of the specs."""
        exported = []
        for attempt in range(2):
            telemetry = Telemetry(
                TelemetryConfig(sample_latency=True, profile=False)
            )
            run_specs(
                matrix_specs(["gcc", "gzip"], ["pid"], instructions=100_000),
                jobs=jobs,
                telemetry=telemetry,
                cache=False,
            )
            path = tmp_path / f"metrics-{attempt}.json"
            write_metrics_json(telemetry.snapshot(), path)
            exported.append(json.loads(path.read_text()))
        latencies = [
            data["metrics"].pop("engine.sample_latency_seconds")
            for data in exported
        ]
        assert latencies[0]["count"] == latencies[1]["count"] > 0
        assert exported[0] == exported[1]


class TestConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.trace_mode == "decimate"
        assert config.profile

    def test_validation(self):
        with pytest.raises(ConfigError):
            TelemetryConfig(trace_capacity=1)
        with pytest.raises(ConfigError):
            TelemetryConfig(trace_mode="reservoir")
        with pytest.raises(ConfigError):
            TelemetryConfig(event_capacity=0)


class TestCLI:
    def test_run_with_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        code = repro_main(
            [
                "run", "gzip", "--policy", "pid",
                "--instructions", "200000",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace retained:" in out
        assert trace_path.exists() and metrics_path.exists()
        assert read_trace_jsonl(trace_path).records

    def test_trace_subcommand_reports(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        repro_main(
            [
                "run", "gzip", "--policy", "pid",
                "--instructions", "200000",
                "--trace-out", str(trace_path),
            ]
        )
        capsys.readouterr()
        assert repro_main(["trace", str(trace_path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace report: gzip / pid" in out
        assert "hottest samples" in out

    def test_csv_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "t.csv"
        code = repro_main(
            [
                "run", "gzip", "--policy", "pid",
                "--instructions", "150000",
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        assert trace_path.read_text().startswith("index,")


class TestExperiments:
    def test_figure4_uses_trace_schema(self):
        from repro.experiments import figure4_traces

        sink = Telemetry()
        result = figure4_traces.run(
            benchmark="gzip",
            policies=("none", "pid"),
            instructions=200_000,
            telemetry=sink,
        )
        assert set(result.extras["temps"]) == {"none", "pid"}
        assert len(result.extras["temps"]["pid"]) > 0
        # The shared sink accumulated both runs' records.
        contexts = {(r.benchmark, r.policy) for r in sink.trace.records()}
        assert contexts == {("gzip", "none"), ("gzip", "pid")}
