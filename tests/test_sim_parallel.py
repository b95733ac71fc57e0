"""The parallel sweep executor: determinism, telemetry parity, plumbing.

The headline guarantee -- ``jobs=N`` is bit-identical to ``jobs=1`` --
is asserted twice: once on a fixed matrix with full telemetry parity
(trace records, events, metrics, meta), and once as a hypothesis
property over random benchmark/policy/seed subsets and ``jobs in
{1, 2, 4}``.

Metric parity note: results and traces are *exactly* equal.  Metrics
obey the documented associative merge semantics of
:meth:`repro.telemetry.metrics.MetricsRegistry.merge_snapshot`:
counters, histogram bin counts, min/max, and gauge extremes are exactly
equal; histogram ``sum`` is a regrouped float summation (equal to ~1
ulp); a merged gauge's ``value`` is pinned to its ``extreme``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TelemetryConfig
from repro.errors import ConfigError
from repro.sim.parallel import (
    SweepDefaults,
    WorkSpec,
    current_sweep_defaults,
    matrix_specs,
    resolve_sweep,
    run_specs,
    sweep_defaults,
)
from repro.sim.sweep import run_one, run_suite
from repro.telemetry.core import Telemetry

RESULT_FIELDS = (
    "benchmark",
    "policy",
    "cycles",
    "instructions",
    "emergency_fraction",
    "stress_fraction",
    "block_emergency_fraction",
    "block_stress_fraction",
    "mean_block_temperature",
    "max_block_temperature",
    "mean_chip_power",
    "max_chip_power",
    "energy_joules",
    "engaged_fraction",
    "interrupt_events",
    "interrupt_stall_cycles",
    "extra",
)

#: Short budget: parity does not depend on run length.
INSTRUCTIONS = 150_000


def quiet_telemetry() -> Telemetry:
    """Deterministic sink: no wall-clock observations, no spans."""
    return Telemetry(TelemetryConfig(sample_latency=False, profile=False))


def assert_results_equal(a, b):
    for field in RESULT_FIELDS:
        assert getattr(a, field) == getattr(b, field), field


def nan_equal(a, b) -> bool:
    """Structural equality where NaN == NaN (trace fields default NaN)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(nan_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(nan_equal(a[k], b[k]) for k in a)
    return a == b


def assert_metrics_match(serial: dict, parallel: dict):
    """Exact equality up to the documented merge semantics."""
    assert serial.keys() == parallel.keys()
    for name in serial:
        a, b = serial[name], parallel[name]
        assert a["kind"] == b["kind"], name
        if a["kind"] == "counter":
            assert a == b, name
        elif a["kind"] == "gauge":
            assert a["extreme"] == b["extreme"], name
            assert a["updates"] == b["updates"], name
            assert a["prefer"] == b["prefer"], name
            # Serial (jobs=1) keeps last-set semantics; merged worker
            # snapshots pin value to the extreme (documented).
            assert b["value"] in (a["value"], b["extreme"]), name
        else:  # histogram
            assert a["edges"] == b["edges"], name
            assert a["counts"] == b["counts"], name
            assert a["count"] == b["count"], name
            assert a["min"] == b["min"] and a["max"] == b["max"], name
            assert a["nan_count"] == b["nan_count"], name
            # Regrouped float summation: equal to ~1 ulp.
            assert a["sum"] == pytest.approx(b["sum"], rel=1e-12), name


class TestWorkSpec:
    def test_key_is_matrix_coordinate(self):
        spec = WorkSpec(benchmark="gcc", policy="pid", seed=9)
        assert spec.key == ("gcc", "pid", 9)

    def test_matrix_specs_canonical_order(self):
        specs = matrix_specs(["a", "b"], ["p", "q"], seeds=(0, 1))
        assert [s.key for s in specs] == [
            ("a", "p", 0), ("a", "p", 1), ("a", "q", 0), ("a", "q", 1),
            ("b", "p", 0), ("b", "p", 1), ("b", "q", 0), ("b", "q", 1),
        ]

    def test_matrix_specs_baseline_first(self):
        specs = matrix_specs(["a"], ["pid"], include_baseline=True)
        assert [s.policy for s in specs] == ["none", "pid"]

    def test_execute_matches_run_one(self):
        spec = WorkSpec(benchmark="gzip", policy="pid", instructions=INSTRUCTIONS)
        [result] = run_specs([spec], jobs=1)
        direct = run_one("gzip", "pid", instructions=INSTRUCTIONS)
        assert_results_equal(result, direct)


def _jobs(jobs, tasks):
    return resolve_sweep(jobs=jobs, cache=False, tasks=tasks).jobs


class TestResolveJobs:
    def test_none_uses_process_default(self):
        assert _jobs(None, 8) == current_sweep_defaults().jobs == 1

    def test_zero_means_all_cores_clamped_to_tasks(self):
        assert _jobs(0, 1) == 1

    def test_clamped_to_task_count(self):
        assert _jobs(16, 3) == 3

    def test_default_jobs_round_trip(self):
        with sweep_defaults(SweepDefaults(jobs=3)):
            assert current_sweep_defaults().jobs == 3
            assert _jobs(None, 8) == 3
        assert current_sweep_defaults().jobs == 1

    def test_rejects_negative_and_non_int(self):
        with pytest.raises(ConfigError):
            SweepDefaults(jobs=-1)
        with pytest.raises(ConfigError):
            _jobs(-2, 4)
        with pytest.raises(ConfigError):
            _jobs(1.5, 4)

    def test_rejects_bool(self):
        # bool is an int subclass: jobs=True used to pass the
        # isinstance check and silently mean "one worker".
        with pytest.raises(ConfigError):
            SweepDefaults(jobs=True)
        with pytest.raises(ConfigError):
            SweepDefaults(jobs=False)
        with pytest.raises(ConfigError):
            _jobs(True, 4)


class TestSubmissionWindow:
    def test_window_bounds_in_flight_submissions(self):
        from repro.sim.parallel import _submission_window

        assert _submission_window(4) == 16
        assert _submission_window(4, window_factor=2) == 8
        # Degenerate inputs clamp to at least one in-flight spec.
        assert _submission_window(0) == 4
        assert _submission_window(1, window_factor=0) == 1


class TestParallelBitIdentity:
    def test_run_specs_parallel_matches_serial(self):
        specs = matrix_specs(
            ["gcc", "gzip"],
            ["pid", "toggle1"],
            include_baseline=True,
            instructions=INSTRUCTIONS,
        )
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=4)
        for a, b in zip(serial, parallel):
            assert_results_equal(a, b)

    def test_run_suite_parallel_matches_serial(self):
        kwargs = dict(
            policies=["pid"],
            benchmarks=["gcc", "art"],
            instructions=INSTRUCTIONS,
            seed=5,
        )
        serial = run_suite(**kwargs)
        parallel = run_suite(jobs=2, **kwargs)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert_results_equal(serial[key], parallel[key])

    def test_telemetry_parity(self):
        kwargs = dict(
            policies=["pid", "toggle1"],
            benchmarks=["gcc", "gzip"],
            instructions=INSTRUCTIONS,
            seed=3,
        )
        t_serial = quiet_telemetry()
        run_suite(telemetry=t_serial, **kwargs)
        t_parallel = quiet_telemetry()
        run_suite(telemetry=t_parallel, jobs=4, **kwargs)

        serial_records = [r.to_dict() for r in t_serial.trace.records()]
        parallel_records = [r.to_dict() for r in t_parallel.trace.records()]
        assert len(serial_records) == len(parallel_records)
        assert t_serial.trace.emitted == t_parallel.trace.emitted
        assert t_serial.trace.stride == t_parallel.trace.stride
        for a, b in zip(serial_records, parallel_records):
            assert nan_equal(a, b)

        serial_events = [e.to_dict() for e in t_serial.trace.events]
        parallel_events = [e.to_dict() for e in t_parallel.trace.events]
        assert nan_equal(serial_events, parallel_events)

        assert_metrics_match(
            t_serial.metrics.snapshot(), t_parallel.metrics.snapshot()
        )
        assert nan_equal(t_serial.meta, t_parallel.meta)
        assert (t_serial.benchmark, t_serial.policy) == (
            t_parallel.benchmark,
            t_parallel.policy,
        )

    def test_record_history_survives_pickling(self):
        specs = [
            WorkSpec(
                benchmark="gcc",
                policy="pid",
                instructions=INSTRUCTIONS,
                record_history=True,
            )
        ] * 2
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert parallel[0].history is not None
        import numpy as np

        for a, b in zip(serial, parallel):
            assert np.array_equal(a.history.block_temps, b.history.block_temps)
            assert np.array_equal(a.history.duty, b.history.duty)


class TestParallelProperty:
    @given(
        benchmarks=st.lists(
            st.sampled_from(["gcc", "gzip", "art", "mesa"]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        policies=st.lists(
            st.sampled_from(["none", "toggle1", "pi", "pid"]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**16),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        jobs=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_parallel_is_bit_identical_to_serial(
        self, benchmarks, policies, seeds, jobs
    ):
        specs = matrix_specs(
            benchmarks, policies, seeds=seeds, instructions=INSTRUCTIONS
        )
        t_serial = quiet_telemetry()
        serial = run_specs(specs, jobs=1, telemetry=t_serial)
        t_parallel = quiet_telemetry()
        parallel = run_specs(specs, jobs=jobs, telemetry=t_parallel)
        for a, b in zip(serial, parallel):
            assert_results_equal(a, b)
        assert_metrics_match(
            t_serial.metrics.snapshot(), t_parallel.metrics.snapshot()
        )
        assert t_serial.trace.emitted == t_parallel.trace.emitted
        for a, b in zip(t_serial.trace.records(), t_parallel.trace.records()):
            assert nan_equal(a.to_dict(), b.to_dict())
