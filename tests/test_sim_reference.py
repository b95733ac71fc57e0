"""Bit-identity guard: the sample kernel vs the pinned reference.

:meth:`repro.sim.fast.FastEngine.run` is a one-lane
:class:`~repro.sim.batch.BatchEngine`.  Every optimization in that
kernel (prebuilt phase tables, no-copy state views, the stacked
``advance_batch`` thermal call, the deferred dual-threshold
``fractions_above`` pass, preallocated history buffers) must be a pure
strength reduction.  These tests assert *exact* float equality -- not
approximate closeness -- between the engine and
:class:`tests.reference_kernel.ReferenceFastEngine`, which pins the
original per-sample body verbatim.

The one intentional difference is also locked down here: the reference
carries the pre-fix cycle-budget bug (warmup consumed its own
``max_cycles`` allowance on top of the measurement budget), while the
engine charges warmup and measurement against a single shared budget.
Runs that exhaust that shared budget are held to goldens of the
deleted scalar kernel instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtm.policies import make_policy
from repro.errors import SimulationError
from repro.power.leakage import LeakageModel
from repro.sim.batch import BatchEngine
from repro.sim.fast import FastEngine
from repro.telemetry.core import Telemetry
from repro.thermal.floorplan import Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.workloads.phases import Phase, uniform_activity
from repro.workloads.profiles import (
    BenchmarkProfile,
    ThermalCategory,
    get_profile,
)
from tests.reference_kernel import (
    SCALAR_GOLDENS,
    ReferenceFastEngine,
    scalar_golden,
)

SCALAR_FIELDS = (
    "benchmark",
    "policy",
    "cycles",
    "instructions",
    "emergency_fraction",
    "stress_fraction",
    "mean_chip_power",
    "max_chip_power",
    "energy_joules",
    "engaged_fraction",
    "interrupt_events",
    "interrupt_stall_cycles",
)
DICT_FIELDS = (
    "block_emergency_fraction",
    "block_stress_fraction",
    "mean_block_temperature",
    "max_block_temperature",
    "extra",
)
HISTORY_FIELDS = (
    "max_temp",
    "duty",
    "chip_power",
    "block_temps",
    "block_powers",
    "block_emergency",
    "block_stress",
)


def build(cls, benchmark, policy, seed=0, **kwargs):
    floorplan = kwargs.pop("floorplan", None) or Floorplan.default()
    return cls(
        benchmark
        if isinstance(benchmark, BenchmarkProfile)
        else get_profile(benchmark),
        policy=make_policy(policy, floorplan),
        floorplan=floorplan,
        seed=seed,
        **kwargs,
    )


def assert_identical(fused, reference):
    """Exact (bit-level) equality of two RunResults."""
    for field in SCALAR_FIELDS:
        assert getattr(fused, field) == getattr(reference, field), field
    for field in DICT_FIELDS:
        assert getattr(fused, field) == getattr(reference, field), field
    if reference.history is None:
        assert fused.history is None
    else:
        assert fused.history is not None
        for field in HISTORY_FIELDS:
            a = getattr(fused.history, field)
            b = getattr(reference.history, field)
            assert a.shape == b.shape, field
            assert np.array_equal(a, b), field


class TestFusedKernelBitIdentity:
    # ("bench", not "benchmark": pytest-benchmark claims that fixture name)
    @pytest.mark.parametrize("bench", ["gcc", "gzip", "art"])
    @pytest.mark.parametrize("policy", ["none", "toggle1", "pid"])
    def test_matrix(self, bench, policy):
        for seed in (0, 7):
            fused = build(FastEngine, bench, policy, seed=seed)
            reference = build(ReferenceFastEngine, bench, policy, seed=seed)
            assert_identical(fused.run(400_000), reference.run(400_000))

    def test_with_history(self):
        fused = build(FastEngine, "gcc", "pid", seed=3, record_history=True)
        reference = build(
            ReferenceFastEngine, "gcc", "pid", seed=3, record_history=True
        )
        assert_identical(fused.run(600_000), reference.run(600_000))

    def test_with_leakage(self):
        leakage = LeakageModel()
        fused = build(FastEngine, "gcc", "pi", seed=1, leakage=leakage)
        reference = build(
            ReferenceFastEngine, "gcc", "pi", seed=1, leakage=leakage
        )
        assert_identical(fused.run(400_000), reference.run(400_000))

    def test_with_monitored_blocks(self):
        monitored = ("regfile", "int_exec")
        fused = build(FastEngine, "gcc", "pid", monitored_blocks=monitored)
        reference = build(
            ReferenceFastEngine, "gcc", "pid", monitored_blocks=monitored
        )
        assert_identical(fused.run(400_000), reference.run(400_000))

    def test_with_warmup(self):
        fused = build(FastEngine, "gzip", "pid", seed=2)
        reference = build(ReferenceFastEngine, "gzip", "pid", seed=2)
        assert_identical(
            fused.run(300_000, warmup_instructions=100_000),
            reference.run(300_000, warmup_instructions=100_000),
        )

    def test_with_telemetry(self):
        fused = build(FastEngine, "gcc", "pid", telemetry=Telemetry())
        reference = build(
            ReferenceFastEngine, "gcc", "pid", telemetry=Telemetry()
        )
        a, b = fused.run(300_000), reference.run(300_000)
        assert_identical(a, b)
        assert fused.telemetry.trace.emitted == reference.telemetry.trace.emitted
        assert (
            fused.telemetry.metrics.snapshot()["engine.max_temperature_c"]
            == reference.telemetry.metrics.snapshot()["engine.max_temperature_c"]
        )


class TestCycleBudgetFix:
    """Warmup and measurement now share one ``max_cycles`` budget."""

    def test_budget_covers_warmup_plus_measurement(self):
        engine = build(FastEngine, "gcc", "none", seed=0)
        budget = 400_000
        result = engine.run(
            instructions=10**12,  # never reached: budget-limited run
            max_cycles=budget,
            warmup_instructions=50_000,
        )
        sample = engine.dtm_config.sampling_interval
        total_cycles = engine.manager.samples * sample  # includes warmup
        assert total_cycles <= budget
        assert result.cycles < total_cycles  # warmup actually happened
        # The reference keeps its own budget rule: the scalar kernel's
        # golden is the oracle.
        golden = "budget_covers_warmup_plus_measurement"
        assert engine.manager.samples == SCALAR_GOLDENS[golden]["samples"]
        assert_identical(result, scalar_golden(golden))

    def test_reference_overruns_budget_by_warmup(self):
        """The pinned reference keeps the old double-budget behaviour."""
        budget = 400_000
        fused = build(FastEngine, "gcc", "none", seed=0)
        fused.run(10**12, max_cycles=budget, warmup_instructions=50_000)
        reference = build(ReferenceFastEngine, "gcc", "none", seed=0)
        reference.run(10**12, max_cycles=budget, warmup_instructions=50_000)
        sample = fused.dtm_config.sampling_interval
        assert fused.manager.samples * sample <= budget
        assert reference.manager.samples * sample > budget

    def test_budget_exhausted_during_warmup_raises(self):
        engine = build(FastEngine, "gcc", "none", seed=0)
        with pytest.raises(SimulationError, match="warmup") as info:
            engine.run(
                instructions=10**12,
                max_cycles=10_000,
                warmup_instructions=10**12,
            )
        golden = scalar_golden("budget_exhausted_during_warmup")
        assert str(info.value) == str(golden)
        assert repr(info.value.diagnostics) == repr(golden.diagnostics)

    def test_unlimited_runs_unaffected(self):
        """Runs that never exhaust their budget are bit-identical."""
        fused = build(FastEngine, "gzip", "pid", seed=4)
        reference = build(ReferenceFastEngine, "gzip", "pid", seed=4)
        assert_identical(
            fused.run(300_000, warmup_instructions=60_000),
            reference.run(300_000, warmup_instructions=60_000),
        )


#: Demand IPC is floored at this value before the throughput model.
DEMAND_FLOOR = 0.05

#: Synthetic profiles whose demand IPC falls below the floor: a phase
#: whose IPC is itself below it, and a low-IPC phase whose jitter
#: (demand draws ``ipc * (1 + 0.25 z)``) crosses it on about one sample
#: in eight, between two ordinary phases.
FLOOR_PROFILES = {
    "stalled": BenchmarkProfile(
        "stalled",
        ThermalCategory.LOW,
        (Phase("stall", 40_000, 0.02, uniform_activity(0.3), jitter=0.05),),
        seed=5,
    ),
    "jittery": BenchmarkProfile(
        "jittery",
        ThermalCategory.LOW,
        (
            Phase("busy", 20_000, 1.2, uniform_activity(0.6), jitter=0.05),
            Phase("starved", 20_000, 0.07, uniform_activity(0.2), jitter=0.5),
        ),
        seed=6,
    ),
}


class TestDemandFloor:
    """The 0.05 demand floor binds, and binds as in the reference."""

    @pytest.mark.parametrize("name", sorted(FLOOR_PROFILES))
    def test_floored_demand_matches_reference(self, name):
        profile = FLOOR_PROFILES[name]
        runs = []
        for cls in (FastEngine, ReferenceFastEngine):
            engine = build(
                cls, profile, "none", seed=2, record_history=True,
                telemetry=Telemetry(),
            )
            runs.append((engine.run(150_000), engine.telemetry))
        (lane, lane_sink), (reference, reference_sink) = runs
        assert_identical(lane, reference)
        assert lane_sink.trace.emitted == reference_sink.trace.emitted
        # Without DTM the supply never binds and nothing stalls, so a
        # sample's IPC is its demand: the floor is the least of them.
        ipcs = [record.ipc for record in lane_sink.trace.records()]
        assert [
            record.ipc for record in reference_sink.trace.records()
        ] == ipcs
        assert min(ipcs) == DEMAND_FLOOR
        floored = ipcs.count(DEMAND_FLOOR)
        assert floored >= len(ipcs) // 20
        if name == "jittery":
            assert floored < len(ipcs)  # only some draws fall below


class TestEngineReuse:
    """A second run continues from the first run's end state."""

    def test_consecutive_runs_match_a_reused_reference(self):
        engine = build(FastEngine, "gcc", "pid", seed=1)
        reference = build(ReferenceFastEngine, "gcc", "pid", seed=1)
        for _ in range(2):
            assert_identical(engine.run(300_000), reference.run(300_000))
        assert np.array_equal(
            engine.thermal.temperatures, reference.thermal.temperatures
        )

    def test_consecutive_one_lane_batches_match_a_reused_reference(self):
        engine = build(FastEngine, "gcc", "pid", seed=1)
        reference = build(ReferenceFastEngine, "gcc", "pid", seed=1)
        first = reference.run(300_000)
        second = reference.run(300_000)
        [lane] = BatchEngine([engine]).run(instructions=300_000)
        assert_identical(lane, first)
        [lane] = BatchEngine([engine]).run(instructions=300_000)
        assert_identical(lane, second)
        assert second.mean_chip_power != first.mean_chip_power


class TestReadOnlyViews:
    """Hot-path no-copy views stay immutable from the outside."""

    def test_thermal_view_matches_and_rejects_writes(self):
        model = LumpedThermalModel(Floorplan.default())
        view = model.temperatures_view
        assert np.array_equal(view, model.temperatures)
        with pytest.raises(ValueError):
            view[0] = 0.0

    def test_thermal_view_tracks_advances(self):
        model = LumpedThermalModel(Floorplan.default())
        powers = np.full(len(model.floorplan.blocks), 5.0)
        before = model.temperatures_view.copy()
        model.advance(powers, 100_000)
        after = model.temperatures_view
        assert not np.array_equal(before, after)
        assert np.array_equal(after, model.temperatures)
        with pytest.raises(ValueError):
            after[0] = 0.0

    def test_advance_from_preserves_start_snapshot(self):
        model = LumpedThermalModel(Floorplan.default())
        powers = np.full(len(model.floorplan.blocks), 5.0)
        start = model.temperatures_view
        frozen = start.copy()
        end, steady = model.advance_from(start, powers, 100_000)
        assert np.array_equal(start, frozen)  # rebind, not overwrite
        assert np.array_equal(end, model.temperatures)
        assert np.array_equal(steady, model.steady_state(powers))

    def test_power_peaks_view_matches_and_rejects_writes(self):
        from repro.power.wattch import PowerModel

        model = PowerModel(Floorplan.default())
        view = model.peaks_view
        assert np.array_equal(view, model.peaks)
        assert view is model.peaks_view  # cached, no per-read allocation
        with pytest.raises(ValueError):
            view[0] = 0.0

    def test_public_copies_stay_defensive(self):
        model = LumpedThermalModel(Floorplan.default())
        copy = model.temperatures
        copy[0] = -1000.0
        assert model.temperatures[0] != -1000.0


class TestFractionsAbove:
    """The fused dual-threshold pass equals per-threshold calls exactly."""

    def test_matches_single_threshold_kernel(self):
        model = LumpedThermalModel(Floorplan.default())
        rng = np.random.default_rng(11)
        n = len(model.floorplan.blocks)
        for _ in range(50):
            start = 60.0 + 50.0 * rng.random(n)
            steady = 60.0 + 50.0 * rng.random(n)
            duration = float(10.0 ** rng.uniform(-6, -2))
            thresholds = tuple(60.0 + 50.0 * rng.random(2))
            fused = model.fractions_above(start, steady, duration, thresholds)
            for row, threshold in enumerate(thresholds):
                single = model.fraction_above(start, steady, duration, threshold)
                assert np.array_equal(fused[row], single), threshold

    def test_steady_equal_threshold_lane(self):
        """steady == threshold must not divide by zero or mis-classify."""
        model = LumpedThermalModel(Floorplan.default())
        n = len(model.floorplan.blocks)
        threshold = 100.0
        start = np.full(n, 90.0)
        steady = np.full(n, threshold)  # approaches but never crosses
        fraction = model.fractions_above(start, steady, 1e-3, (threshold,))
        assert np.all(fraction == 0.0)
        start_above = np.full(n, 110.0)  # cooling toward the threshold
        fraction = model.fractions_above(start_above, steady, 1e-3, (threshold,))
        assert np.all(fraction == 1.0)
