"""Fault-tolerant sweep orchestration: crashes, timeouts, retries, resume.

Faults are injected by monkeypatching :func:`repro.sim.parallel._execute`
with a version that recognizes magic benchmark names (``__crash__``
``os._exit``'s the worker, ``__hang__`` sleeps past any timeout,
``__stubborn_hang__`` also ignores SIGTERM, ``__raise__`` raises,
``__flaky__`` fails N times then succeeds).  A real benchmark tagged
``("__hang__",)`` hangs both alone and as one lane of a batched group
(``run_spec_lanes`` is patched too).  Worker processes inherit the
patches because Linux uses the ``fork`` start method -- the whole
module is skipped elsewhere.

The determinism headline: a checkpointed sweep killed mid-run and
resumed is bit-identical to an uninterrupted sweep -- results, retained
trace records, events, and metrics -- once the ``sweep.*`` orchestration
diagnostics (which deliberately record the interruption history itself)
are filtered out.  Asserted as a hypothesis property over the truncation
point.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import signal
import time
from multiprocessing.connection import wait

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.parallel as parallel_module
from repro.config import TelemetryConfig
from repro.errors import SweepError
from repro.sim.checkpoint import load_checkpoint
from repro.sim.parallel import (
    RetryPolicy,
    SweepOptions,
    WorkSpec,
    matrix_specs,
    run_outcomes,
    run_specs,
)
from repro.telemetry.core import Telemetry

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault injection relies on workers inheriting the "
    "monkeypatched _execute via fork",
)

INSTRUCTIONS = 150_000

#: Captured in the parent at import; forked workers inherit a different
#: os.getpid(), letting injected faults fire only inside workers.
_PARENT_PID = os.getpid()

_REAL_EXECUTE = parallel_module._execute
_REAL_RUN_SPEC_LANES = parallel_module.run_spec_lanes

#: A real benchmark tagged with this hangs, alone or as one batched lane.
_HANG_TAG = ("__hang__",)


def _injected_execute(spec, telemetry):
    if spec.tag == _HANG_TAG:
        time.sleep(120)
    if spec.benchmark == "__crash__":
        os._exit(42)
    if spec.benchmark == "__crash_worker_only__":
        if os.getpid() != _PARENT_PID:
            os._exit(42)
        return _delegate(spec, telemetry)
    if spec.benchmark == "__hang__":
        time.sleep(120)
    if spec.benchmark == "__stubborn_hang__":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(120)
    if spec.benchmark == "__raise__":
        raise RuntimeError("injected failure")
    if spec.benchmark == "__interrupt__":
        raise KeyboardInterrupt
    if spec.benchmark == "__flaky__":
        marker, failures_needed = spec.tag
        attempts = int(open(marker).read()) if os.path.exists(marker) else 0
        with open(marker, "w") as handle:
            handle.write(str(attempts + 1))
        if attempts < failures_needed:
            raise RuntimeError(f"flaky attempt {attempts}")
        return _delegate(spec, telemetry)
    return _REAL_EXECUTE(spec, telemetry)


def _delegate(spec, telemetry):
    return _REAL_EXECUTE(
        dataclasses.replace(spec, benchmark="gcc", tag=()), telemetry
    )


def _injected_run_spec_lanes(specs, locals_):
    if any(spec.tag == _HANG_TAG for spec in specs):
        time.sleep(120)
    return _REAL_RUN_SPEC_LANES(specs, locals_)


@pytest.fixture
def inject_faults(monkeypatch):
    monkeypatch.setattr(parallel_module, "_execute", _injected_execute)
    monkeypatch.setattr(
        parallel_module, "run_spec_lanes", _injected_run_spec_lanes
    )


def _spec(benchmark, policy="pid", tag=()):
    return WorkSpec(
        benchmark=benchmark,
        policy=policy,
        instructions=INSTRUCTIONS,
        tag=tag,
    )


def _quiet() -> Telemetry:
    return Telemetry(TelemetryConfig(sample_latency=False, profile=False))


def _kinds(telemetry, prefix="sweep."):
    return [e.kind for e in telemetry.trace.events if e.kind.startswith(prefix)]


class TestFailureIsolation:
    def test_errors_land_on_exactly_the_failing_specs(self, inject_faults):
        """A crash and a raise fail alone; innocents -- including the
        in-flight bystander whose future the pool death also broke --
        all complete."""
        specs = [
            _spec("gcc"),
            _spec("__raise__"),
            _spec("gzip"),
            _spec("__crash__"),
            _spec("art"),
        ]
        telemetry = _quiet()
        outcomes = run_outcomes(
            specs, jobs=2, telemetry=telemetry, options=SweepOptions()
        )
        assert [o.ok for o in outcomes] == [True, False, True, False, True]
        assert outcomes[1].error.kind == "error"
        assert outcomes[1].error.exc_type == "RuntimeError"
        assert "injected failure" in outcomes[1].error.message
        assert outcomes[3].error.kind == "crash"
        assert [o.result is not None for o in outcomes] == [
            True, False, True, False, True,
        ]
        kinds = _kinds(telemetry)
        assert "sweep.pool_crash" in kinds
        assert kinds.count("sweep.spec_failed") == 2

    def test_failed_attempt_contributes_no_telemetry(self, inject_faults):
        serial, faulty = _quiet(), _quiet()
        clean = [_spec("gcc"), _spec("gzip")]
        run_outcomes(clean, jobs=1, telemetry=serial, options=SweepOptions())
        withfail = [_spec("gcc"), _spec("__raise__"), _spec("gzip")]
        run_outcomes(
            withfail, jobs=1, telemetry=faulty, options=SweepOptions()
        )
        assert len(faulty.trace.records()) == len(serial.trace.records())

    def test_strict_raises_one_aggregated_error(self, inject_faults):
        specs = [_spec("gcc"), _spec("__raise__"), _spec("__crash__")]
        with pytest.raises(SweepError) as excinfo:
            run_outcomes(specs, jobs=2, options=SweepOptions(strict=True))
        error = excinfo.value
        assert len(error.failures) == 2
        assert "2 of 3 specs failed permanently" in str(error)

    def test_run_specs_returns_none_for_failures(self, inject_faults):
        specs = [_spec("gcc"), _spec("__raise__")]
        results = run_specs(specs, jobs=1, options=SweepOptions())
        assert results[0] is not None
        assert results[1] is None


class TestTimeouts:
    def test_hung_spec_times_out_alone_and_promptly(self, inject_faults):
        telemetry = _quiet()
        specs = [_spec("gcc"), _spec("__hang__"), _spec("gzip")]
        started = time.monotonic()
        outcomes = run_outcomes(
            specs,
            jobs=2,
            telemetry=telemetry,
            options=SweepOptions(timeout_seconds=2.0),
        )
        elapsed = time.monotonic() - started
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error.kind == "timeout"
        assert elapsed < 60  # nowhere near the 120s sleep
        assert "sweep.timeout" in _kinds(telemetry)

    def test_hung_lane_times_out_its_group_then_alone(self, inject_faults):
        """Three 2-lane groups in flight on two workers; one lane hangs.
        Its group's deadline (timeout x lanes) passes, the group's lanes
        re-run unbatched, and only the hung spec is charged -- no
        innocent lane or group pays for queueing behind others."""
        telemetry = _quiet()
        specs = matrix_specs(
            ["gcc", "gzip", "art"], ["none", "pid"], instructions=INSTRUCTIONS
        )
        hung = 3  # second lane of the middle group
        specs[hung] = dataclasses.replace(specs[hung], tag=_HANG_TAG)
        started = time.monotonic()
        outcomes = run_outcomes(
            specs,
            jobs=2,
            telemetry=telemetry,
            options=SweepOptions(timeout_seconds=3.0),
            batch=2,
        )
        elapsed = time.monotonic() - started
        group_timeouts = [
            e for e in telemetry.trace.events
            if e.kind == "sweep.timeout" and e.data.get("lanes") == 2
        ]
        assert [e.sample_index for e in group_timeouts] == [hung - 1]
        assert outcomes[hung].error.kind == "timeout"
        assert outcomes[hung].attempts == 1
        for index, outcome in enumerate(outcomes):
            if index != hung:
                assert outcome.ok and outcome.attempts == 1, index
        assert elapsed < 60  # nowhere near the 120s sleep

    def test_timed_out_worker_dies_even_if_it_ignores_sigterm(
        self, inject_faults
    ):
        """Pool teardown kills with SIGKILL: a worker holding a SIGTERM
        handler (forked workers inherit the CLI's) cannot outlive its
        timed-out pool."""
        outcomes = run_outcomes(
            [_spec("__stubborn_hang__")],
            jobs=1,
            options=SweepOptions(timeout_seconds=1.0),
        )
        assert outcomes[0].error.kind == "timeout"
        for child in multiprocessing.active_children():
            # The killed pool's manager thread joins its workers too.  If
            # it reaps one first, waitpid here fails with ECHILD and
            # is_alive() reads the dead worker as running; the sentinel
            # is ready once the process has exited, whoever reaps it.
            assert wait([child.sentinel], timeout=10), child

    def test_jobs1_with_timeout_runs_on_a_pool(self, inject_faults):
        # In-process execution cannot preempt a hung spec; the
        # orchestrator must route jobs=1 + timeout onto a worker pool.
        outcomes = run_outcomes(
            [_spec("__hang__"), _spec("gcc")],
            jobs=1,
            options=SweepOptions(timeout_seconds=2.0),
        )
        assert not outcomes[0].ok
        assert outcomes[0].error.kind == "timeout"
        assert outcomes[1].ok


class TestRetries:
    def test_flaky_spec_succeeds_on_allowed_retry(
        self, inject_faults, tmp_path
    ):
        marker = str(tmp_path / "flaky")
        telemetry = _quiet()
        outcomes = run_outcomes(
            [_spec("__flaky__", tag=(marker, 2))],
            jobs=2,
            telemetry=telemetry,
            options=SweepOptions(retry=RetryPolicy(max_retries=3)),
        )
        assert outcomes[0].ok
        assert outcomes[0].attempts == 3
        assert _kinds(telemetry).count("sweep.retry") == 2

    def test_retry_budget_exhausts(self, inject_faults, tmp_path):
        marker = str(tmp_path / "flaky")
        outcomes = run_outcomes(
            [_spec("__flaky__", tag=(marker, 5))],
            jobs=2,
            options=SweepOptions(retry=RetryPolicy(max_retries=1)),
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2

    def test_crasher_is_charged_attempts_under_retry(self, inject_faults):
        """Pool-crash retries re-run in isolation; the deterministic
        crasher burns its budget without dragging innocents down or
        degrading the sweep."""
        telemetry = _quiet()
        specs = [_spec("gcc"), _spec("__crash__"), _spec("gzip")]
        outcomes = run_outcomes(
            specs,
            jobs=2,
            telemetry=telemetry,
            options=SweepOptions(retry=RetryPolicy(max_retries=1)),
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].attempts == 2
        assert "sweep.degraded" not in _kinds(telemetry)

    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(
            max_retries=5,
            backoff_seconds=0.5,
            backoff_multiplier=2.0,
            max_backoff_seconds=1.5,
        )
        assert [policy.delay(k) for k in (1, 2, 3, 4)] == [
            0.5, 1.0, 1.5, 1.5,
        ]
        assert RetryPolicy().delay(1) == 0.0


class TestPoolRecovery:
    def test_degrades_to_serial_after_rebuild_budget(self, inject_faults):
        telemetry = _quiet()
        specs = [
            _spec("gcc"),
            _spec("__crash_worker_only__"),
            _spec("gzip"),
        ]
        outcomes = run_outcomes(
            specs,
            jobs=2,
            telemetry=telemetry,
            options=SweepOptions(max_pool_rebuilds=0),
        )
        # The crash exceeded the rebuild budget immediately; the rest of
        # the sweep -- crasher included, which only dies in a worker --
        # completed in-process.
        assert all(o.ok for o in outcomes)
        assert "sweep.degraded" in _kinds(telemetry)

    def test_interrupt_folds_completed_telemetry(self, inject_faults):
        telemetry = _quiet()
        specs = [_spec("gcc"), _spec("__interrupt__"), _spec("gzip")]
        with pytest.raises(KeyboardInterrupt):
            run_outcomes(
                specs, jobs=1, telemetry=telemetry, options=SweepOptions()
            )
        # The completed first spec's telemetry survived the interrupt.
        assert len(telemetry.trace.records()) > 0

    def test_legacy_pool_interrupt_propagates(self, inject_faults):
        specs = [_spec("__interrupt__"), _spec("gcc")]
        with pytest.raises(KeyboardInterrupt):
            run_specs(specs, jobs=1, telemetry=_quiet())


REFERENCE_BENCHMARKS = ("gcc", "gzip")
REFERENCE_POLICIES = ("none", "pid")
_reference_cache: dict = {}


def _reference(tmp_root):
    """Uninterrupted checkpointed sweep: results, telemetry, journal."""
    if not _reference_cache:
        specs = matrix_specs(
            REFERENCE_BENCHMARKS,
            REFERENCE_POLICIES,
            instructions=INSTRUCTIONS,
        )
        telemetry = _quiet()
        path = tmp_root / "reference.ckpt.jsonl"
        outcomes = run_outcomes(
            specs,
            jobs=2,
            telemetry=telemetry,
            options=SweepOptions(checkpoint_path=path),
        )
        _reference_cache.update(
            specs=specs,
            results=[o.result for o in outcomes],
            telemetry=telemetry,
            journal_lines=path.read_text().splitlines(True),
        )
    return _reference_cache


def _records_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        for field in x.__dataclass_fields__:
            vx, vy = getattr(x, field), getattr(y, field)
            if vx != vy and not (
                isinstance(vx, float)
                and isinstance(vy, float)
                and math.isnan(vx)
                and math.isnan(vy)
            ):
                return False
    return True


def _comparable_events(telemetry):
    return [
        e for e in telemetry.trace.events if not e.kind.startswith("sweep.")
    ]


def _comparable_metrics(telemetry):
    snapshot = telemetry.metrics.snapshot()
    return {
        name: stats
        for name, stats in snapshot.items()
        if not name.startswith("events.sweep.")
    }


class TestResumeBitIdentity:
    @settings(max_examples=6, deadline=None)
    @given(completed=st.integers(min_value=0, max_value=4))
    def test_interrupted_then_resumed_sweep_is_bit_identical(
        self, completed, tmp_path_factory
    ):
        """Kill a checkpointed sweep after N journaled outcomes, resume:
        results, retained records, events, and metrics (sweep.*
        diagnostics aside) match the uninterrupted sweep exactly."""
        root = tmp_path_factory.getbasetemp()
        reference = _reference(root)
        workdir = tmp_path_factory.mktemp("resume")
        path = workdir / "sweep.ckpt.jsonl"
        # Header + the first `completed` outcome lines: the on-disk
        # state an abrupt kill would have left behind.
        path.write_text(
            "".join(reference["journal_lines"][: 1 + completed])
        )
        telemetry = _quiet()
        outcomes = run_outcomes(
            reference["specs"],
            jobs=2,
            telemetry=telemetry,
            options=SweepOptions(checkpoint_path=path, resume=True),
        )
        assert [o.from_checkpoint for o in outcomes] == [
            index < completed for index in range(len(outcomes))
        ]
        for resumed, expected in zip(outcomes, reference["results"]):
            result = resumed.result
            assert result.cycles == expected.cycles
            assert result.emergency_fraction == expected.emergency_fraction
            assert result.mean_chip_power == expected.mean_chip_power
            assert (
                result.max_block_temperature
                == expected.max_block_temperature
            )
        sink = reference["telemetry"]
        assert _records_equal(
            telemetry.trace.records(), sink.trace.records()
        )
        assert _comparable_events(telemetry) == _comparable_events(sink)
        assert _comparable_metrics(telemetry) == _comparable_metrics(sink)
        # The journal is whole again: a further resume re-runs nothing.
        assert sum(
            len(v) for v in load_checkpoint(path).values()
        ) == len(reference["specs"])

    def test_failed_specs_are_not_journaled(self, inject_faults, tmp_path):
        path = tmp_path / "sweep.ckpt.jsonl"
        specs = [_spec("gcc"), _spec("__raise__")]
        run_outcomes(
            specs, jobs=1, options=SweepOptions(checkpoint_path=path)
        )
        saved = load_checkpoint(path)
        assert sum(len(v) for v in saved.values()) == 1

    def test_journal_is_a_content_addressed_cache(self, tmp_path):
        """A different sweep sharing a spec reuses its saved outcome."""
        path = tmp_path / "shared.ckpt.jsonl"
        first = [_spec("gcc"), _spec("gzip")]
        run_outcomes(
            first, jobs=1, options=SweepOptions(checkpoint_path=path)
        )
        second = [_spec("art"), _spec("gcc")]  # gcc shared, art new
        outcomes = run_outcomes(
            second,
            jobs=1,
            options=SweepOptions(checkpoint_path=path, resume=True),
        )
        assert [o.from_checkpoint for o in outcomes] == [False, True]

    def test_duplicate_specs_consume_one_saved_outcome_each(self, tmp_path):
        path = tmp_path / "dup.ckpt.jsonl"
        specs = [_spec("gcc"), _spec("gcc")]
        run_outcomes(
            specs, jobs=1, options=SweepOptions(checkpoint_path=path)
        )
        outcomes = run_outcomes(
            specs,
            jobs=1,
            options=SweepOptions(checkpoint_path=path, resume=True),
        )
        assert [o.from_checkpoint for o in outcomes] == [True, True]


class TestOrchestratedParity:
    def test_serial_orchestrated_matches_legacy(self):
        """SweepOptions() with jobs=1 must not perturb the classic
        sweep: same results, records, events, metrics."""
        specs = matrix_specs(
            ("gcc",), ("none", "pid"), instructions=INSTRUCTIONS
        )
        legacy_sink, orch_sink = _quiet(), _quiet()
        legacy = run_specs(specs, jobs=1, telemetry=legacy_sink)
        outcomes = run_outcomes(
            specs, jobs=1, telemetry=orch_sink, options=SweepOptions()
        )
        for a, b in zip(legacy, (o.result for o in outcomes)):
            assert a.cycles == b.cycles
            assert a.max_block_temperature == b.max_block_temperature
        assert _records_equal(
            legacy_sink.trace.records(), orch_sink.trace.records()
        )
        assert _comparable_events(legacy_sink) == _comparable_events(
            orch_sink
        )
        # Orchestrated execution runs each spec against a local sink and
        # merges, so gauge values follow the documented merge semantics
        # (value pinned to extreme) rather than last-set.
        from tests.test_sim_parallel import assert_metrics_match

        assert_metrics_match(
            _comparable_metrics(legacy_sink),
            _comparable_metrics(orch_sink),
        )
