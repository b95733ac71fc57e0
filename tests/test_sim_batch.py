"""The lane-batched simulation subsystem (:mod:`repro.sim.batch`).

The headline guarantee -- each lane of ``batch=B`` is bit-identical to
its own run on the pinned per-sample reference kernel
(``tests/reference_kernel.py``) -- is asserted directly on a
:class:`BatchEngine` over mixed lanes (policies, seeds, faults,
failsafe, ragged budgets, history on/off) and as a hypothesis property
over random matrices and B in {1, 2, 4, 8}.  Runs that exhaust a
shared warmup-plus-measurement cycle budget, which the reference
budgets differently, are held to goldens of the deleted scalar kernel.
Through the executor (``run_specs``/``run_suite``/orchestrator, serial
and pooled) ``batch=B`` must equal ``batch=1``.

A static guard keeps the lane kernel the only single-core sample loop.

Cross-backend checkpoint parity: a journal written by a serial sweep
resumes under ``batch=B`` (and vice versa) with results bit-identical
to an uninterrupted serial sweep, because batched runs produce the
same canonical spec fingerprints.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import math
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch_module
import repro.sim.parallel as parallel_module
from repro.config import DTMConfig, FailsafeConfig
from repro.dtm.policies import make_policy
from repro.errors import ConfigError, SimulationError
from repro.faults import FaultSchedule
from repro.sim.batch import (
    BatchEngine,
    batch_compatibility_key,
    plan_batches,
    run_spec_lanes,
    validate_batch,
)
from repro.sim.checkpoint import (
    load_checkpoint,
    result_from_dict,
    result_to_dict,
    spec_fingerprint,
)
from repro.sim.parallel import (
    RetryPolicy,
    SweepDefaults,
    SweepOptions,
    WorkSpec,
    current_sweep_defaults,
    matrix_specs,
    resolve_sweep,
    run_outcomes,
    run_specs,
    sweep_defaults,
)
from repro.power.leakage import LeakageModel
from repro.multicore.engine import MulticoreEngine
from repro.sim.fast import FastEngine
from repro.sim.stage import STAGE_ROWS
from repro.sim.sweep import build_engine, run_suite
from repro.telemetry.core import Telemetry
from repro.thermal.floorplan import Block, Floorplan
from repro.workloads.phases import Phase, uniform_activity
from repro.workloads.profiles import (
    BenchmarkProfile,
    ThermalCategory,
    get_profile,
)
from tests.reference_kernel import (
    ReferenceFastEngine,
    build_reference,
    scalar_golden,
)
from tests.test_properties_thermal import (
    _run_forms,
    assert_same_floats,
    lane_step_cases,
)
from tests.test_sim_parallel import (
    INSTRUCTIONS,
    assert_metrics_match,
    assert_results_equal,
    nan_equal,
    quiet_telemetry,
)


def assert_histories_equal(a, b):
    """Exact (bitwise) equality of two History payloads."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.sample_cycles == b.sample_cycles
    assert a.names == b.names
    for name in (
        "max_temp",
        "duty",
        "chip_power",
        "block_temps",
        "block_powers",
        "block_emergency",
        "block_stress",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def mixed_specs() -> list[WorkSpec]:
    """Compatible specs exercising every per-lane divergence at once."""
    return [
        WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=INSTRUCTIONS,
            record_history=True,
        ),
        WorkSpec(
            benchmark="gzip",
            policy="none",
            instructions=60_000,
            seed=7,
        ),
        WorkSpec(
            benchmark="art",
            policy="toggle2",
            instructions=90_000,
            fault_schedule=FaultSchedule(
                seed=3, dropout_rate=0.05, spike_rate=0.05
            ),
        ),
        WorkSpec(
            benchmark="mesa",
            policy="pi",
            instructions=INSTRUCTIONS,
            failsafe=FailsafeConfig(),
        ),
        WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=75_000,
            seed=11,
            fault_schedule=FaultSchedule(seed=5, stale_rate=0.1),
            failsafe=FailsafeConfig(),
        ),
    ]


class TestValidation:
    @pytest.mark.parametrize("bad", [True, False, 0, -1, 1.5, "4", None])
    def test_validate_batch_rejects(self, bad):
        with pytest.raises(ConfigError):
            validate_batch(bad)

    @pytest.mark.parametrize("good", [1, 2, 8, 1000])
    def test_validate_batch_accepts(self, good):
        validate_batch(good)

    def test_validate_batch_allow_none(self):
        validate_batch(None, allow_none=True)
        with pytest.raises(ConfigError):
            validate_batch(True, allow_none=True)

    @pytest.mark.parametrize("bad", [True, 0, -3, 2.0])
    def test_sweep_options_rejects_bad_batch(self, bad):
        # The batch width lives on SweepDefaults, not SweepOptions.
        with pytest.raises(ConfigError):
            SweepDefaults(batch=bad)
        with pytest.raises(TypeError):
            SweepOptions(batch=4)

    def test_sweep_options_accepts_none_and_int(self):
        assert resolve_sweep(batch=None, cache=False).batch == 1
        assert SweepDefaults().batch == 1
        assert SweepDefaults(batch=4).batch == 4

    @pytest.mark.parametrize("bad", [True, 0, -1])
    def test_run_specs_rejects_bad_batch(self, bad):
        spec = WorkSpec(benchmark="gcc", policy="none", instructions=1000)
        with pytest.raises(ConfigError):
            run_specs([spec], jobs=1, batch=bad)

    def test_default_batch_roundtrip(self):
        assert current_sweep_defaults().batch == 1
        with sweep_defaults(SweepDefaults(batch=4)):
            assert current_sweep_defaults().batch == 4
            assert resolve_sweep(batch=None, cache=False).batch == 4
            assert resolve_sweep(batch=2, cache=False).batch == 2
        assert current_sweep_defaults().batch == 1

    @pytest.mark.parametrize("bad", [True, 0, -2])
    def test_set_default_batch_rejects(self, bad):
        with pytest.raises(ConfigError):
            SweepDefaults(batch=bad)
        assert current_sweep_defaults().batch == 1

    def test_resolve_jobs_rejects_bool_and_non_int_tasks(self):
        # The jobs-side audit: task counts are counts, not flags.
        with pytest.raises(ConfigError):
            resolve_sweep(jobs=2, cache=False, tasks=True)
        with pytest.raises(ConfigError):
            resolve_sweep(jobs=2, cache=False, tasks=3.0)


class TestPlanner:
    def test_consecutive_compatible_specs_group(self):
        specs = matrix_specs(
            ["gcc", "gzip", "art"], ["none", "pid"], instructions=1000
        )
        assert plan_batches(specs, 4) == [[0, 1, 2, 3], [4, 5]]
        assert plan_batches(specs, 2) == [[0, 1], [2, 3], [4, 5]]

    def test_batch_one_is_all_singletons(self):
        specs = matrix_specs(["gcc", "gzip"], ["none"], instructions=1000)
        assert plan_batches(specs, 1) == [[0], [1]]

    def test_incompatible_environments_split_groups(self):
        base = dict(policy="pid", instructions=1000)
        specs = [
            WorkSpec(benchmark="gcc", **base),
            WorkSpec(benchmark="gzip", dtm_config=DTMConfig(), **base),
            WorkSpec(benchmark="art", **base),
        ]
        # Same benchmark/policy matrix, but lane compatibility keys on
        # the shared environment (floorplan + configs), not the matrix.
        assert batch_compatibility_key(specs[0]) != batch_compatibility_key(
            specs[1]
        )
        assert plan_batches(specs, 4) == [[0], [1], [2]]

    def test_multicore_specs_never_batch(self):
        single = WorkSpec(benchmark="gcc", policy="pid", instructions=1000)
        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=1000,
            core_benchmarks=("gcc", "gzip"),
        )
        assert batch_compatibility_key(multi) is None
        assert plan_batches([single, multi, single], 4) == [[0], [1], [2]]

    def test_engine_for_spec_rejects_multicore(self):
        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=1000,
            core_benchmarks=("gcc", "gzip"),
        )
        with pytest.raises(SimulationError):
            build_engine(multi)


class TestBatchEngineParity:
    def test_single_lane_matches_serial_engine(self):
        serial = build_reference(WorkSpec("gcc", "pid", seed=2)).run(
            instructions=INSTRUCTIONS
        )
        lane = build_engine(WorkSpec("gcc", "pid", seed=2))
        [batched] = BatchEngine([lane]).run(instructions=INSTRUCTIONS)
        assert_results_equal(serial, batched)

    def test_mixed_lanes_bit_identical(self):
        specs = mixed_specs()
        serial = [
            build_reference(spec).run(instructions=spec.instructions)
            for spec in specs
        ]
        outcomes = run_spec_lanes(specs)
        assert all(o.error is None for o in outcomes)
        for a, o in zip(serial, outcomes):
            assert_results_equal(a, o.result)
            assert_histories_equal(a.history, o.result.history)

    def test_warmup_parity(self):
        a = build_reference(WorkSpec("gcc", "pid"))
        b = build_engine(WorkSpec("gcc", "pid"))
        warm_serial = a.run(
            instructions=INSTRUCTIONS, warmup_instructions=30_000
        )
        [warm_batched] = BatchEngine([b]).run(
            instructions=INSTRUCTIONS, warmup_instructions=30_000
        )
        assert_results_equal(warm_serial, warm_batched)

    def test_cycle_budgets_and_warmup_parity(self):
        """Per-lane cycle budgets and warmups: gcc and equake warm up,
        then change phase mid-measurement at different steps; gcc's one
        interrupt falls in its warmup, so its stall cycles must stay
        out of its totals; equake and gzip stop on their budgets
        mid-measurement (gzip's is not a whole number of samples);
        parser's warmup overruns its budget; art's budget of 0 cycles
        allows no sample at all.  Every outcome equals the reference
        run's, except where the shared warmup-plus-measurement budget
        runs out (equake, parser): the reference gives warmup a budget
        of its own, so those equal the scalar kernel's goldens."""
        interrupts = DTMConfig(
            use_interrupts=True, nonct_trigger=100.1, policy_delay=2000
        )
        lanes = [
            # (benchmark, policy, instructions, max_cycles, warmup)
            ("gcc", "toggle2", 100_000, None, 250_000),
            ("equake", "pi", 200_000, 260_000, 300_000),
            ("parser", "toggle1", 100_000, 50_000, 1e9),
            ("gzip", "none", 60_000, 20_500, 0),
            ("art", "none", 60_000, 0, 0),
        ]
        specs = [
            WorkSpec(benchmark, policy, dtm_config=interrupts)
            for benchmark, policy, *_ in lanes
        ]
        references = [build_reference(spec) for spec in specs]
        expected = []
        for engine, (benchmark, _, instructions, max_cycles, warmup) in zip(
            references, lanes
        ):
            if benchmark in ("equake", "parser"):
                expected.append(scalar_golden(f"cycle_budgets/{benchmark}"))
                continue
            try:
                expected.append(engine.run(
                    instructions=instructions,
                    max_cycles=max_cycles,
                    warmup_instructions=warmup,
                ))
            except SimulationError as error:
                expected.append(error)
        outcomes = BatchEngine(
            [build_engine(spec) for spec in specs]
        ).run_outcomes(
            instructions=[lane[2] for lane in lanes],
            max_cycles=[lane[3] for lane in lanes],
            warmup_instructions=[lane[4] for lane in lanes],
        )
        gcc, equake, parser, gzip, art = expected
        assert references[0].manager.interrupts.stall_cycles > 0
        assert gcc.interrupt_stall_cycles == 0
        assert equake.instructions < 200_000 and equake.cycles < 260_000
        assert gzip.instructions < 60_000 and gzip.cycles == 21_000
        assert "exceeded its cycle budget" in str(parser)
        assert "produced no samples" in str(art)
        for outcome, want in zip(outcomes, expected):
            if isinstance(want, SimulationError):
                assert outcome.result is None
                assert type(outcome.error) is type(want)
                assert str(outcome.error) == str(want)
                assert repr(outcome.error.diagnostics) == repr(
                    want.diagnostics
                )
            else:
                assert outcome.error is None
                assert_results_equal(want, outcome.result)

    def test_lane_error_is_isolated_in_outcomes(self):
        specs = [
            WorkSpec(benchmark="gcc", policy="none", instructions=60_000),
            WorkSpec(benchmark="gzip", policy="pid", instructions=-1),
            WorkSpec(benchmark="art", policy="pid", instructions=60_000),
        ]
        outcomes = run_spec_lanes(specs)
        assert outcomes[0].error is None and outcomes[0].result is not None
        assert isinstance(outcomes[1].error, SimulationError)
        assert outcomes[2].error is None and outcomes[2].result is not None
        # The surviving lanes match their solo runs exactly.
        solo = build_reference(specs[2]).run(instructions=60_000)
        assert_results_equal(solo, outcomes[2].result)

    def test_run_raises_earliest_lane_error(self):
        specs = [
            WorkSpec(benchmark="gcc", policy="none", instructions=60_000),
            WorkSpec(benchmark="gzip", policy="pid", instructions=-1),
        ]
        engines = [build_engine(specs[0])]
        batch = BatchEngine(engines)
        with pytest.raises(SimulationError):
            batch.run(instructions=[-1])

    def test_rejects_mismatched_environments(self):
        a = build_engine(WorkSpec("gcc", "pid"))
        b = build_engine(
            WorkSpec("gzip", "pid", dtm_config=DTMConfig(pid_setpoint=99.0))
        )
        with pytest.raises(SimulationError):
            BatchEngine([a, b])

    def test_rejects_empty_batch(self):
        with pytest.raises(SimulationError):
            BatchEngine([])


#: Short phases that alternate between jittered and ``jitter=0``, each
#: some 15-60 samples long: a lane changes phase several times within a
#: chunk and across the chunk boundary, goes from one jittered phase
#: straight into another (warm -> burst), and re-enters a jittered
#: phase with draws left over from a build it abandoned.  The hot and
#: burst jitter is large enough for the clip to bind.
ALTERNATING = BenchmarkProfile(
    "alternating",
    ThermalCategory.HIGH,
    (
        Phase("hot", 37_000, 1.8, uniform_activity(0.9, regfile=1.0),
              jitter=0.3),
        Phase("calm", 23_000, 1.1, uniform_activity(0.4), jitter=0.0),
        Phase("warm", 51_000, 1.4, uniform_activity(0.7), jitter=0.05),
        Phase("burst", 29_000, 2.0, uniform_activity(0.95, fp_exec=0.5),
              jitter=0.2),
        Phase("idle", 61_000, 0.6, uniform_activity(0.2), jitter=0.0),
    ),
    seed=11,
)

#: (policy, seed, instructions): ragged budgets, so lanes leave (and
#: the others start a new chunk) at different steps.
ALTERNATING_LANES = (
    ("pid", 0, 1_600_000),
    ("toggle1", 1, 900_000),
    ("none", 2, 1_250_000),
    ("pi", 3, 600_000),
)

SAMPLE = DTMConfig().sampling_interval


def _alternating(cls, policy, seed):
    floorplan = Floorplan.default()
    return cls(
        ALTERNATING,
        policy=make_policy(policy, floorplan),
        floorplan=floorplan,
        seed=seed,
        record_history=True,
    )


class _CountingGenerator:
    """A ``Generator`` that counts the calls made on it."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestChunkActivity:
    """A lane draws its jitter and builds its activity rows once per
    chunk and phase change; the rows equal per-sample draws."""

    @pytest.mark.parametrize("width", [1, 4])
    def test_alternating_jitter_matches_reference(self, width):
        lanes = ALTERNATING_LANES[:width]
        engines = [
            _alternating(FastEngine, policy, seed) for policy, seed, _ in lanes
        ]
        results = BatchEngine(engines).run(
            instructions=[budget for *_, budget in lanes]
        )
        for (policy, seed, budget), result in zip(lanes, results):
            expected = _alternating(ReferenceFastEngine, policy, seed).run(
                budget
            )
            assert_results_equal(result, expected)
            assert_histories_equal(result.history, expected.history)
        assert results[0].cycles > 2 * STAGE_ROWS * SAMPLE

    def test_draws_once_per_chunk_or_phase_change(self, monkeypatch):
        generators: list[_CountingGenerator] = []
        phases: list[int] = []
        start = FastEngine._start

        def counting_start(self, instructions, max_cycles):
            *head, rng = start(self, instructions, max_cycles)
            generators.append(_CountingGenerator(rng))
            return (*head, generators[-1])

        def recording_bisect(ends, position):
            phases.append(bisect_right(ends, position))
            return phases[-1]

        monkeypatch.setattr(FastEngine, "_start", counting_start)
        monkeypatch.setattr(batch_module, "bisect_right", recording_bisect)
        result = _alternating(FastEngine, "pid", 0).run(1_600_000)
        samples = result.cycles // SAMPLE
        assert len(phases) == samples
        changes = sum(a != b for a, b in zip(phases, phases[1:]))
        chunks = -(-samples // STAGE_ROWS)
        [rng] = generators
        assert 0 < rng.calls <= chunks + changes + 1
        assert chunks + changes + 1 < samples // 4


class TestExecutorBatch:
    def test_run_specs_batched_serial_and_pooled(self):
        specs = matrix_specs(
            ["gcc", "gzip"],
            ["pid", "toggle1"],
            include_baseline=True,
            instructions=INSTRUCTIONS,
        )
        serial = run_specs(specs, jobs=1)
        for jobs, batch in ((1, 4), (2, 3), (2, 8)):
            batched = run_specs(specs, jobs=jobs, batch=batch)
            for a, b in zip(serial, batched):
                assert_results_equal(a, b)

    def test_run_specs_batched_telemetry_parity(self):
        specs = matrix_specs(
            ["gcc", "gzip"], ["pid"], include_baseline=True,
            instructions=INSTRUCTIONS,
        )
        t_serial = quiet_telemetry()
        run_specs(specs, jobs=1, telemetry=t_serial)
        t_batched = quiet_telemetry()
        run_specs(specs, jobs=1, batch=4, telemetry=t_batched)
        assert t_serial.trace.emitted == t_batched.trace.emitted
        for a, b in zip(
            t_serial.trace.records(), t_batched.trace.records()
        ):
            assert nan_equal(a.to_dict(), b.to_dict())
        assert nan_equal(
            [e.to_dict() for e in t_serial.trace.events],
            [e.to_dict() for e in t_batched.trace.events],
        )
        assert_metrics_match(
            t_serial.metrics.snapshot(), t_batched.metrics.snapshot()
        )

    def test_run_suite_batch(self):
        kwargs = dict(
            policies=["pid"],
            benchmarks=["gcc", "art"],
            instructions=INSTRUCTIONS,
            seed=5,
        )
        serial = run_suite(**kwargs)
        batched = run_suite(batch=4, **kwargs)
        assert serial.keys() == batched.keys()
        for key in serial:
            assert_results_equal(serial[key], batched[key])

    def test_multicore_spec_dispatches_inside_batched_sweep(self):
        from repro.multicore.results import MulticoreRunResult

        single = matrix_specs(
            ["gcc", "gzip"], ["pid"], instructions=60_000
        )
        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=60_000,
            core_benchmarks=("gcc", "gzip"),
        )
        specs = [single[0], multi, single[1]]
        results = run_specs(specs, jobs=1, batch=4)
        assert isinstance(results[1], MulticoreRunResult)
        assert results[1].n_cores == 2
        serial = run_specs(single, jobs=1)
        assert_results_equal(serial[0], results[0])
        assert_results_equal(serial[1], results[2])

    def test_orchestrator_batch_matches_serial(self):
        specs = matrix_specs(
            ["gcc", "gzip"], ["none", "pid"], instructions=60_000
        )
        ref = run_outcomes(specs, jobs=1, options=SweepOptions())
        for jobs in (1, 2):
            out = run_outcomes(
                specs, jobs=jobs, options=SweepOptions(), batch=4
            )
            for a, b in zip(ref, out):
                assert_results_equal(a.result, b.result)

    def test_orchestrator_isolates_bad_lane_in_group(self):
        good = matrix_specs(["gcc"], ["none", "pid"], instructions=60_000)
        bad = WorkSpec(benchmark="gcc", policy="pid", instructions=-5)
        specs = [good[0], bad, good[1]]
        for jobs in (1, 2):
            out = run_outcomes(
                specs,
                jobs=jobs,
                options=SweepOptions(retry=RetryPolicy(max_retries=1)),
                batch=4,
            )
            assert out[0].result is not None
            assert out[1].result is None and out[1].error is not None
            assert out[2].result is not None

    def test_orchestrator_window_counts_groups(self, monkeypatch):
        """The submission window bounds in-flight *tasks*: a lane group
        counts once, so ``window_factor * jobs`` groups keep every
        worker busy instead of one group filling a lane-counted window."""
        specs = matrix_specs(
            ["gcc", "gzip"], ["none", "pid", "toggle1"], instructions=60_000
        )
        options = SweepOptions(window_factor=1)
        jobs, batch = 2, 2
        groups = len(plan_batches(specs, batch))
        uncollected: set = set()
        peak = 0

        class CountingPool(parallel_module.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                nonlocal peak
                future = super().submit(fn, *args, **kwargs)
                uncollected.add(future)
                peak = max(peak, len(uncollected))
                result = future.result

                def collect(timeout=None):
                    try:
                        return result(timeout)
                    finally:
                        uncollected.discard(future)

                future.result = collect
                return future

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", CountingPool
        )
        out = run_outcomes(specs, jobs=jobs, options=options, batch=batch)
        assert groups == 3
        assert peak == min(options.window_factor * jobs, groups) == 2
        ref = run_outcomes(specs, jobs=1, options=SweepOptions())
        for a, b in zip(ref, out):
            assert_results_equal(a.result, b.result)

    def test_fail_fast_raises_through_batch(self):
        specs = [
            WorkSpec(benchmark="gcc", policy="none", instructions=60_000),
            WorkSpec(benchmark="gzip", policy="pid", instructions=-5),
        ]
        for jobs in (1, 2):
            with pytest.raises(SimulationError):
                run_specs(specs, jobs=jobs, batch=4)


class TestCheckpointCrossBackend:
    def _specs(self):
        return matrix_specs(
            ["gcc", "gzip"], ["none", "pid"], instructions=60_000
        )

    def _journal_payload(self, path, specs):
        saved = load_checkpoint(path)
        return {
            fingerprint: [entry["result"] for entry in entries]
            for fingerprint, entries in saved.items()
            if fingerprint in {spec_fingerprint(s) for s in specs}
        }

    @pytest.mark.parametrize(
        "first_batch,second_batch", [(1, 4), (4, 1)]
    )
    def test_interrupted_sweep_resumes_across_backends(
        self, tmp_path, first_batch, second_batch
    ):
        specs = self._specs()
        path = tmp_path / "journal.jsonl"
        ref = run_outcomes(specs, jobs=1, options=SweepOptions())

        # "Interrupt" after half the specs under one backend...
        half = run_outcomes(
            specs[:2],
            jobs=1,
            options=SweepOptions(checkpoint_path=path),
            batch=first_batch,
        )
        assert all(o.result is not None for o in half)

        # ...then resume the full sweep under the other backend.
        resumed = run_outcomes(
            specs,
            jobs=1,
            options=SweepOptions(checkpoint_path=path, resume=True),
            batch=second_batch,
        )
        for a, b in zip(ref, resumed):
            assert_results_equal(a.result, b.result)

        # The journal holds one bit-identical entry per spec,
        # regardless of which backend produced it.
        payload = self._journal_payload(path, specs)
        assert sorted(payload) == sorted(
            spec_fingerprint(spec) for spec in specs
        )
        serial_dicts = {
            spec_fingerprint(spec): result_to_dict(outcome.result)
            for spec, outcome in zip(specs, ref)
        }
        for fingerprint, entries in payload.items():
            assert len(entries) == 1
            assert nan_equal(entries[0], serial_dicts[fingerprint])

    def test_batched_journal_fingerprints_match_serial(self, tmp_path):
        specs = self._specs()
        serial_path = tmp_path / "serial.jsonl"
        batched_path = tmp_path / "batched.jsonl"
        run_outcomes(
            specs, jobs=1,
            options=SweepOptions(checkpoint_path=serial_path),
        )
        run_outcomes(
            specs, jobs=1,
            options=SweepOptions(checkpoint_path=batched_path),
            batch=4,
        )
        a = self._journal_payload(serial_path, specs)
        b = self._journal_payload(batched_path, specs)
        assert sorted(a) == sorted(b)
        for fingerprint in a:
            assert nan_equal(a[fingerprint], b[fingerprint])

    def test_multicore_result_round_trips(self):
        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=60_000,
            core_benchmarks=("gcc", "gzip"),
            coordinator="proportional",
        )
        [result] = run_specs([multi], jobs=1)
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.policy == result.policy
        assert rebuilt.coordinator == result.coordinator
        assert rebuilt.cycles == result.cycles
        assert rebuilt.emergency_fraction == result.emergency_fraction
        assert rebuilt.mean_chip_power == result.mean_chip_power
        assert rebuilt.energy_joules == result.energy_joules
        assert rebuilt.extra == result.extra
        assert len(rebuilt.cores) == len(result.cores)
        for a, b in zip(result.cores, rebuilt.cores):
            assert a == b

    def test_multicore_resume_from_journal(self, tmp_path):
        from repro.multicore.results import MulticoreRunResult

        multi = WorkSpec(
            benchmark="gcc",
            policy="pid",
            instructions=60_000,
            core_benchmarks=("gcc", "gzip"),
        )
        path = tmp_path / "journal.jsonl"
        first = run_outcomes(
            [multi], jobs=1, options=SweepOptions(checkpoint_path=path)
        )
        resumed = run_outcomes(
            [multi],
            jobs=1,
            options=SweepOptions(checkpoint_path=path, resume=True),
        )
        assert isinstance(resumed[0].result, MulticoreRunResult)
        assert resumed[0].result.cycles == first[0].result.cycles
        for a, b in zip(first[0].result.cores, resumed[0].result.cores):
            assert a == b


class TestBatchProperty:
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
        batch=st.sampled_from([1, 2, 4, 8]),
        ragged=st.booleans(),
        faulty=st.booleans(),
        failsafe=st.booleans(),
        interrupts=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_batched_is_bit_identical_to_serial(
        self, benchmarks, policies, seeds, batch, ragged, faulty, failsafe,
        interrupts,
    ):
        dtm_config = None
        if interrupts:
            # Interrupt-driven toggling with a trigger these short runs
            # cross and a two-sample re-check: non-zero stall totals.
            dtm_config = DTMConfig(
                use_interrupts=True, nonct_trigger=100.1, policy_delay=2000
            )
            if "toggle1" not in policies:
                policies = [*policies, "toggle1"]
        specs = matrix_specs(
            benchmarks,
            policies,
            seeds=seeds,
            instructions=INSTRUCTIONS,
            record_history=True,
            failsafe=FailsafeConfig() if failsafe else None,
            dtm_config=dtm_config,
        )
        if ragged:
            # Ragged budgets: lanes complete at different samples.
            specs = [
                dataclasses.replace(
                    spec, instructions=50_000 + 20_000 * (i % 3)
                )
                for i, spec in enumerate(specs)
            ]
        if faulty:
            specs = [
                dataclasses.replace(
                    spec,
                    fault_schedule=FaultSchedule(
                        seed=i, dropout_rate=0.05, spike_rate=0.02
                    ),
                )
                for i, spec in enumerate(specs)
            ]
        # The oracle: the same sweep, every spec on the reference kernel.
        built = []

        def reference(spec, telemetry=None):
            built.append(spec)
            return build_reference(spec, telemetry)

        t_serial = quiet_telemetry()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel_module, "build_engine", reference)
            serial = run_specs(specs, jobs=1, telemetry=t_serial)
        assert built == specs
        t_batched = quiet_telemetry()
        batched = run_specs(
            specs, jobs=1, batch=batch, telemetry=t_batched
        )
        if interrupts:
            assert any(result.interrupt_stall_cycles for result in serial)
        for a, b in zip(serial, batched):
            assert_results_equal(a, b)
            assert_histories_equal(a.history, b.history)
        assert t_serial.trace.emitted == t_batched.trace.emitted
        for a, b in zip(
            t_serial.trace.records(), t_batched.trace.records()
        ):
            assert nan_equal(a.to_dict(), b.to_dict())
        assert_metrics_match(
            t_serial.metrics.snapshot(), t_batched.metrics.snapshot()
        )


SIM_PACKAGE = Path(parallel_module.__file__).resolve().parent


class TestOneSampleKernel:
    """The lane kernel is the only single-core sample loop."""

    def test_fast_engine_has_no_loop_of_its_own(self):
        assert "_run" not in vars(FastEngine)
        assert not hasattr(FastEngine, "_run")

    def test_reference_kernel_is_not_shipped(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.reference")

    def test_only_the_lane_kernel_advances_the_thermal_model(self):
        callers = set()
        for path in SIM_PACKAGE.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr
                    in ("advance_batch", "advance_from", "advance_lanes")
                ):
                    callers.add(path.relative_to(SIM_PACKAGE).as_posix())
        assert callers == {"batch.py"}


class TestThermalSpan:
    """The kernel opens one ``thermal.advance`` span per step, around
    its plant call, in lane 0's profiler."""

    @staticmethod
    def _spans(telemetry) -> int:
        names = telemetry.profiler.names()
        if "thermal.advance" not in names:
            return 0
        return telemetry.profiler.stats("thermal.advance").count

    def test_lone_run_records_one_span_per_step(self):
        engine = _solo_engine(FastEngine, "gcc", "pid", telemetry=Telemetry())
        result = engine.run(300_000)
        assert self._spans(engine.telemetry) == result.cycles // SAMPLE

    def test_ragged_batch_records_its_steps_in_lane_zero(self):
        """Lane 0 leaves first; its profiler still counts every step,
        at every live lane count, and the other lanes' profilers
        none."""
        engines = [
            _solo_engine(
                FastEngine, benchmark, policy, seed=seed,
                telemetry=Telemetry(),
            )
            for seed, (benchmark, policy) in enumerate(
                (("gzip", "toggle1"), ("gcc", "pid"), ("art", "pi"))
            )
        ]
        results = BatchEngine(engines).run(
            instructions=[150_000, 700_000, 400_000]
        )
        steps = [result.cycles // SAMPLE for result in results]
        assert steps[0] < min(steps[1:]) and len(set(steps)) == 3
        assert self._spans(engines[0].telemetry) == max(steps)
        assert [self._spans(e.telemetry) for e in engines[1:]] == [0, 0]

    def test_multicore_chip_records_none(self):
        telemetry = Telemetry()
        MulticoreEngine(
            ["gcc", "art"], coordinator="proportional", telemetry=telemetry
        ).run(200_000)
        assert "multicore.run" in telemetry.profiler.names()
        assert self._spans(telemetry) == 0


def _solo_engine(cls, benchmark, policy, seed=0, telemetry=None, **kwargs):
    floorplan = Floorplan.default()
    return cls(
        get_profile(benchmark),
        policy=make_policy(policy, floorplan),
        floorplan=floorplan,
        seed=seed,
        telemetry=telemetry,
        **kwargs,
    )


class TestOneRowStep:
    """Steps with one live lane: every step of a lone run, and a ragged
    batch's last lane.  Whichever form steps them, they give the
    reference kernel's bits."""

    @pytest.mark.parametrize("extra", [2, 10])
    def test_wide_floorplan_matches_reference(self, extra):
        """From eight blocks on, numpy sums a row pairwise: a lone run
        on a 9- or 17-block floorplan equals the reference."""
        base = Floorplan.default()
        floorplan = Floorplan(blocks=base.blocks + tuple(
            Block(f"extra{i}", 1e-6, 2.0 + i) for i in range(extra)
        ))
        results = []
        for cls in (FastEngine, ReferenceFastEngine):
            engine = cls(
                get_profile("gcc"),
                policy=make_policy("pid", floorplan),
                floorplan=floorplan,
                seed=4,
                record_history=True,
            )
            results.append(engine.run(300_000))
        assert_results_equal(*results)
        assert_histories_equal(results[0].history, results[1].history)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("policy", ["toggle1", "pid"])
    @pytest.mark.parametrize("monitored", [None, ("regfile", "int_exec")])
    def test_non_finite_start_state_matches_reference(
        self, bad, policy, monitored
    ):
        """A lone run from a non-finite state dies as the reference
        does: same error, diagnostics and end state.  The state is
        reachable: a run that dies hands its end state back, so the
        second run starts from it.  A NaN that is not the row's first
        value is one numpy's maximum propagates and ``max()`` skips."""
        floorplan = Floorplan.default()
        state = np.full(len(floorplan.names), 104.0)
        state[floorplan.index("int_exec")] = bad
        runs = []
        for cls in (FastEngine, ReferenceFastEngine):
            engine = _solo_engine(
                cls, "gcc", policy, monitored_blocks=monitored
            )
            engine.thermal.set_temperatures(state)
            errors = []
            for _ in range(2):
                with pytest.raises(SimulationError) as info:
                    engine.run(100_000)
                errors.append(info.value)
            runs.append((errors, engine))
        (errors, engine), (expected, reference) = runs
        for error, want in zip(errors, expected):
            assert "non-finite" in str(want)
            assert str(error) == str(want)
            assert repr(error.diagnostics) == repr(want.diagnostics)
        assert np.array_equal(
            engine.thermal.temperatures,
            reference.thermal.temperatures,
            equal_nan=True,
        )
        assert engine.manager.samples == reference.manager.samples

    @pytest.mark.parametrize("monitored", [None, ("regfile", "int_exec")])
    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_maximum_matches_reference(self, zeros, monitored):
        """A hottest block at +0.0 tied with one at -0.0: ``max()``
        keeps the first, numpy need not.  The sensed value the trace
        records carries numpy's sign."""
        floorplan = Floorplan.default()
        state = np.full(len(floorplan.names), -1.0)
        state[floorplan.index("regfile")] = zeros[0]
        state[floorplan.index("int_exec")] = zeros[1]
        if monitored is not None:
            # A hotter block the sensors do not see.
            state[floorplan.index("fp_exec")] = 1.0
        sensed = []
        for cls in (FastEngine, ReferenceFastEngine):
            engine = _solo_engine(
                cls, "gcc", "pid", telemetry=quiet_telemetry(),
                monitored_blocks=monitored,
            )
            engine.thermal.set_temperatures(state)
            engine.run(20_000)
            first = engine.telemetry.trace.records()[0].sensed
            sensed.append(math.copysign(1.0, first) if first == 0 else first)
        assert sensed[0] == sensed[1]

    @given(data=st.data(), blocks=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_power_helper_equals_the_stacked_pass_row(self, data, blocks):
        """The compiled step's power pass with one live lane gives the
        bits of that lane's row of the stacked pass over every lane:
        its block powers (leakage included) and its chip power."""
        case = data.draw(lane_step_cases(blocks))
        lanes = len(case.history)
        case = dataclasses.replace(case, history=[True] * lanes, k=lanes)
        step = case.step
        with np.errstate(all="ignore"):
            stacked = _run_forms(case)[0][3]
            for lane in range(lanes):
                alone = dataclasses.replace(case, k=1, **{
                    field: [getattr(case, field)[lane]]
                    for field in (
                        "leakage", "monitored", "history", "starts",
                        "activity", "ratios",
                    )
                })
                stage = _run_forms(alone)[1][3]
                assert_same_floats(
                    stage.powers[step, 0], stacked.powers[step, lane]
                )
                assert_same_floats(
                    stage.chip[step, :1], stacked.chip[step, lane:lane + 1]
                )

    def test_ragged_survivor_finishes_alone_like_its_lone_run(self):
        """The long lane of a ragged pair steps beside the short one,
        then alone from a new chunk for more than a chunk; it equals
        the reference and its own lone run: result, history, trace and
        metrics."""
        survivor = dict(
            record_history=True,
            leakage=LeakageModel(),
            monitored_blocks=("regfile", "int_exec", "fp_exec"),
        )

        def long_lane(cls, telemetry):
            return _solo_engine(
                cls, "gcc", "pid", seed=3, telemetry=telemetry, **survivor
            )

        sinks = [quiet_telemetry() for _ in range(3)]
        short = _solo_engine(FastEngine, "gzip", "toggle1", seed=1)
        paired, batched = BatchEngine(
            [short, long_lane(FastEngine, sinks[0])]
        ).run(instructions=[150_000, 700_000])
        alone = (batched.cycles - paired.cycles) // SAMPLE
        assert paired.cycles > 0 and alone > STAGE_ROWS
        lone = long_lane(FastEngine, sinks[1]).run(700_000)
        reference = long_lane(ReferenceFastEngine, sinks[2]).run(700_000)
        for result in (lone, reference):
            assert_results_equal(result, batched)
            assert_histories_equal(result.history, batched.history)
        batched_sink = sinks[0]
        for sink in sinks[1:]:
            assert sink.trace.emitted == batched_sink.trace.emitted
            for a, b in zip(
                sink.trace.records(), batched_sink.trace.records()
            ):
                assert nan_equal(a.to_dict(), b.to_dict())
            assert_metrics_match(
                sink.metrics.snapshot(), batched_sink.metrics.snapshot()
            )
