"""Chunk-boundary parity of the deferred threshold pass.

The sample kernel stages each measured sample and evaluates the
emergency/stress fractions once per :data:`~repro.sim.stage.STAGE_ROWS`
rows (:mod:`repro.sim.stage`).  The gate suites' runs are a few hundred
samples long, so they never leave the first chunk.  These runs cross
several chunks, end exactly on a chunk boundary, turn non-finite in
the middle of one, and run ragged and mixed lanes; each lane is
compared field by field with its run on the pinned per-sample
reference (``tests/reference_kernel.py``): results, histories, every
retained trace record, the event stream and the metrics snapshot
(minus the wall-clock latency histogram).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.dtm.policies import make_policy
from repro.errors import SimulationError
from repro.power.leakage import LeakageModel
from repro.sim.batch import BatchEngine
from repro.sim.fast import FastEngine
from repro.sim.parallel import WorkSpec
from repro.sim.stage import STAGE_ROWS
from repro.sim.sweep import build_engine
from repro.telemetry.core import Telemetry
from repro.thermal.floorplan import Floorplan
from repro.workloads.profiles import get_profile
from tests.reference_kernel import ReferenceFastEngine, build_reference

LATENCY = "engine.sample_latency_seconds"
SAMPLE = 1000  # DTMConfig().sampling_interval


def _build(cls, benchmark, policy, seed=0, **kwargs):
    floorplan = Floorplan.default()
    return cls(
        get_profile(benchmark),
        policy=make_policy(policy, floorplan),
        floorplan=floorplan,
        seed=seed,
        **kwargs,
    )


def assert_results_equal(a, b):
    """Exact equality of two RunResults, history arrays included."""
    for field in dataclasses.fields(a):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if field.name != "history":
            assert repr(left) == repr(right), field.name
            continue
        assert (left is None) == (right is None)
        if left is None:
            continue
        for column in dataclasses.fields(left):
            x, y = getattr(left, column.name), getattr(right, column.name)
            if isinstance(x, np.ndarray):
                assert x.shape == y.shape, column.name
                assert np.array_equal(x, y), column.name
            else:
                assert x == y, column.name


def assert_telemetry_equal(a, b):
    """Every retained record field, every event, the metrics snapshot.

    ``repr`` compares every float bit and treats NaN fields as equal.
    """
    assert a.trace.emitted == b.trace.emitted
    for kind in ("records", "events"):
        left = a.trace.records() if kind == "records" else a.trace.events
        right = b.trace.records() if kind == "records" else b.trace.events
        assert len(left) == len(right), kind
        for index, (x, y) in enumerate(zip(left, right)):
            assert repr(x) == repr(y), f"{kind}[{index}]"
    left = a.metrics.snapshot()
    right = b.metrics.snapshot()
    left.pop(LATENCY)
    right.pop(LATENCY)
    assert repr(left) == repr(right)


def _measured(result) -> int:
    return result.cycles // SAMPLE


class _PoisonedLeakage:
    """Real leakage power until call ``at``, NaN power from then on."""

    def __init__(self, at: int) -> None:
        self.model = LeakageModel()
        self.at = at
        self.calls = 0

    def power(self, peaks, temps):
        self.calls += 1
        leak = self.model.power(peaks, temps)
        return leak if self.calls < self.at else leak * math.nan


class TestScalarKernelChunks:
    """Lone runs (a one-lane batch) against the reference."""

    def test_three_chunks_with_every_option(self):
        kwargs = dict(
            seed=5,
            record_history=True,
            monitored_blocks=("regfile", "int_exec", "fp_exec"),
        )
        runs = []
        for cls in (FastEngine, ReferenceFastEngine):
            engine = _build(
                cls, "gcc", "pid", leakage=LeakageModel(),
                telemetry=Telemetry(), **kwargs,
            )
            runs.append((
                engine.run(2_200_000, warmup_instructions=250_000),
                engine.telemetry,
            ))
        (fused, fused_sink), (reference, reference_sink) = runs
        assert _measured(fused) > 3 * STAGE_ROWS
        assert fused.history.samples == _measured(fused)
        assert_results_equal(fused, reference)
        assert_telemetry_equal(fused_sink, reference_sink)

    @pytest.mark.parametrize("policy", ["toggle1", "pi", "pid"])
    def test_run_ending_exactly_on_a_chunk_boundary(self, policy):
        max_cycles = 2 * STAGE_ROWS * SAMPLE
        runs = []
        for cls in (FastEngine, ReferenceFastEngine):
            engine = _build(
                cls, "art", policy, seed=3, record_history=True,
                telemetry=Telemetry(),
            )
            runs.append((
                engine.run(10**12, max_cycles=max_cycles), engine.telemetry,
            ))
        (fused, fused_sink), (reference, reference_sink) = runs
        assert fused.cycles == max_cycles
        assert _measured(fused) == 2 * STAGE_ROWS
        assert_results_equal(fused, reference)
        assert_telemetry_equal(fused_sink, reference_sink)

    def test_non_finite_mid_chunk_keeps_records_up_to_the_failure(self):
        at = STAGE_ROWS + 200  # mid-way through the second chunk
        errors, sinks = [], []
        for cls in (FastEngine, ReferenceFastEngine):
            engine = _build(
                cls, "gcc", "pid", seed=1, leakage=_PoisonedLeakage(at),
                telemetry=Telemetry(),
            )
            with pytest.raises(SimulationError, match="non-finite") as info:
                engine.run(5_000_000)
            errors.append(info.value)
            sinks.append(engine.telemetry)
        assert str(errors[0]) == str(errors[1])
        assert repr(errors[0].diagnostics) == repr(errors[1].diagnostics)
        assert sinks[0].trace.emitted == at - 1
        assert_telemetry_equal(*sinks)


def _lane_engines(lanes, telemetry=True, build=build_engine):
    return [
        build(
            WorkSpec(benchmark, policy, seed=seed, record_history=history),
            Telemetry() if telemetry else None,
        )
        for benchmark, policy, seed, history, _, _ in lanes
    ]


#: (benchmark, policy, seed, history, instructions, warmup): unequal
#: lengths and warmups, so lanes start measuring and leave at
#: different steps and each crosses the chunk boundaries at its own
#: sample count.
LANES = (
    ("art", "pid", 0, True, 2_400_000, 0),
    ("gcc", "toggle1", 1, False, 1_300_000, 300_000),
    ("gzip", "pi", 2, True, 800_000, 150_000),
    ("gcc", "none", 3, False, 1_700_000, 40_000),
)


class TestLaneKernelChunks:
    def test_ragged_lanes_with_warmup_match_serial_runs(self):
        engines = _lane_engines(LANES)
        outcomes = BatchEngine(engines).run_outcomes(
            instructions=[lane[4] for lane in LANES],
            warmup_instructions=[lane[5] for lane in LANES],
        )
        serial = _lane_engines(LANES, build=build_reference)
        for lane, outcome, batched, engine in zip(
            LANES, outcomes, engines, serial
        ):
            assert outcome.error is None
            expected = engine.run(lane[4], warmup_instructions=lane[5])
            assert_results_equal(outcome.result, expected)
            assert_telemetry_equal(batched.telemetry, engine.telemetry)
        assert _measured(outcomes[0].result) > 3 * STAGE_ROWS

    def test_lane_turning_non_finite_mid_chunk(self):
        """Lane 0 (the longest, so always row 0) blows up at sample
        ``at``, its leakage turning NaN there; the other lanes run on
        to their reference results."""
        at = 2 * STAGE_ROWS + 77

        engines = _lane_engines(LANES)
        engines[0].leakage = _PoisonedLeakage(at)
        outcomes = BatchEngine(engines).run_outcomes(
            instructions=[lane[4] for lane in LANES],
            warmup_instructions=[lane[5] for lane in LANES],
        )
        serial = _lane_engines(LANES, build=build_reference)
        serial[0].leakage = _PoisonedLeakage(at)
        with pytest.raises(SimulationError, match="non-finite") as info:
            serial[0].run(LANES[0][4], warmup_instructions=LANES[0][5])
        error = outcomes[0].error
        assert error is not None
        assert str(error) == str(info.value)
        assert repr(error.diagnostics) == repr(info.value.diagnostics)
        assert engines[0].telemetry.trace.emitted == at - 1
        assert_telemetry_equal(engines[0].telemetry, serial[0].telemetry)
        for lane, outcome, batched, engine in zip(
            LANES[1:], outcomes[1:], engines[1:], serial[1:]
        ):
            expected = engine.run(lane[4], warmup_instructions=lane[5])
            assert_results_equal(outcome.result, expected)
            assert_telemetry_equal(batched.telemetry, engine.telemetry)

    def test_leaky_placed_poisoned_and_plain_lanes(self):
        """One batch mixes a leaky lane, a lane sensing two blocks, a
        lane whose leakage turns non-finite mid-chunk, and a plain
        lane; each equals its own reference run, the poisoned one up to
        its error."""
        at = STAGE_ROWS + 200

        def engines(cls):
            lanes = (
                ("gcc", dict(leakage=LeakageModel(), record_history=True)),
                ("art", dict(monitored_blocks=("regfile", "int_exec"))),
                ("gcc", dict(leakage=_PoisonedLeakage(at))),
                ("gzip", dict(record_history=True)),
            )
            return [
                _build(
                    cls, benchmark, "pid", seed=seed, telemetry=Telemetry(),
                    **kwargs,
                )
                for seed, (benchmark, kwargs) in enumerate(lanes)
            ]

        batched = engines(FastEngine)
        budgets = [1_500_000, 1_200_000, 5_000_000, 1_000_000]
        outcomes = BatchEngine(batched).run_outcomes(instructions=budgets)
        reference = engines(ReferenceFastEngine)
        for index, (outcome, engine, budget) in enumerate(
            zip(outcomes, reference, budgets)
        ):
            if index == 2:
                with pytest.raises(SimulationError) as info:
                    engine.run(budget)
                assert "non-finite" in str(info.value)
                assert outcome.result is None
                assert str(outcome.error) == str(info.value)
                assert repr(outcome.error.diagnostics) == repr(
                    info.value.diagnostics
                )
                assert batched[index].telemetry.trace.emitted == at - 1
            else:
                assert outcome.error is None
                assert_results_equal(outcome.result, engine.run(budget))
            assert_telemetry_equal(batched[index].telemetry, engine.telemetry)
            assert np.array_equal(
                batched[index].thermal.temperatures,
                engine.thermal.temperatures,
                equal_nan=True,
            )
        assert _measured(outcomes[0].result) > at

    def test_lanes_without_sinks_match_serial_runs(self):
        engines = _lane_engines(LANES, telemetry=False)
        results = BatchEngine(engines).run(
            instructions=[lane[4] for lane in LANES],
            warmup_instructions=[lane[5] for lane in LANES],
        )
        for lane, result, engine in zip(
            LANES,
            results,
            _lane_engines(LANES, telemetry=False, build=build_reference),
        ):
            assert_results_equal(
                result, engine.run(lane[4], warmup_instructions=lane[5])
            )


def _assert_lanes_match(batched, outcomes, reference, runs):
    """Each lane equals its reference run, ``runs[i]`` being its
    ``run()`` keywords: the result or the error with its diagnostics,
    the telemetry, and the end state handed back to the engine."""
    for engine, outcome, serial, kwargs in zip(
        batched, outcomes, reference, runs
    ):
        if outcome.error is not None:
            with pytest.raises(SimulationError) as info:
                serial.run(**kwargs)
            assert "non-finite" in str(info.value)
            assert str(outcome.error) == str(info.value)
            assert repr(outcome.error.diagnostics) == repr(
                info.value.diagnostics
            )
        else:
            assert_results_equal(outcome.result, serial.run(**kwargs))
        assert_telemetry_equal(engine.telemetry, serial.telemetry)
        assert np.array_equal(
            engine.thermal.temperatures,
            serial.thermal.temperatures,
            equal_nan=True,
        )


class TestSharedStateRows:
    """A step starts on the stage row the step before it ended on, and a
    flush carries the chunk's last end row to row 0.  These runs put a
    non-finite lane's stand-ins and a leaving lane at the rows that
    buffer shares."""

    @pytest.mark.parametrize("bad_lane", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_lane_beside_a_finite_lane(self, bad, bad_lane):
        """One lane of a pair starts from a NaN or inf state: it dies on
        its first step, as its reference run does, and the finite lane
        runs on to its reference result."""

        def engines(cls):
            pair = [
                _build(
                    cls, "gcc", "pid", seed=1, record_history=True,
                    telemetry=Telemetry(),
                ),
                _build(cls, "gzip", "toggle1", seed=2, telemetry=Telemetry()),
            ]
            floorplan = pair[bad_lane].floorplan
            state = np.full(len(floorplan.names), 104.0)
            state[floorplan.index("int_exec")] = bad
            pair[bad_lane].thermal.set_temperatures(state)
            return pair

        batched = engines(FastEngine)
        outcomes = BatchEngine(batched).run_outcomes(instructions=400_000)
        assert outcomes[bad_lane].error is not None
        assert outcomes[1 - bad_lane].error is None
        _assert_lanes_match(
            batched, outcomes, engines(ReferenceFastEngine),
            [dict(instructions=400_000)] * 2,
        )

    def test_lane_turning_non_finite_on_a_chunks_first_step(self):
        """The second chunk's first start row is the first chunk's
        carried end row: a lane dying on that step keeps every record
        before it, and the other lane runs on."""
        at = STAGE_ROWS + 1  # the leakage call of the step, counted from 1

        def engines(cls):
            return [
                _build(
                    cls, "gcc", "pid", seed=1, leakage=_PoisonedLeakage(at),
                    record_history=True, telemetry=Telemetry(),
                ),
                _build(
                    cls, "art", "toggle1", seed=2, record_history=True,
                    telemetry=Telemetry(),
                ),
            ]

        batched = engines(FastEngine)
        budgets = [5_000_000, 1_500_000]
        outcomes = BatchEngine(batched).run_outcomes(instructions=budgets)
        assert outcomes[0].error is not None
        assert batched[0].telemetry.trace.emitted == STAGE_ROWS
        assert _measured(outcomes[1].result) > at
        _assert_lanes_match(
            batched, outcomes, engines(ReferenceFastEngine),
            [dict(instructions=budget) for budget in budgets],
        )

    def test_lane_leaving_exactly_at_a_chunks_end(self):
        """A lane whose cycle budget runs out on step STAGE_ROWS leaves
        as the chunk fills; the lanes that run on start the next chunk
        from their carried rows."""
        runs = [
            dict(instructions=10**12, max_cycles=STAGE_ROWS * SAMPLE),
            dict(instructions=1_500_000, max_cycles=None),
            dict(instructions=2_000_000, max_cycles=None),
        ]

        def engines(cls):
            return [
                _build(
                    cls, benchmark, policy, seed=seed, record_history=True,
                    telemetry=Telemetry(),
                )
                for seed, (benchmark, policy) in enumerate(
                    (("art", "pid"), ("gcc", "toggle1"), ("gzip", "pi"))
                )
            ]

        batched = engines(FastEngine)
        outcomes = BatchEngine(batched).run_outcomes(
            instructions=[run["instructions"] for run in runs],
            max_cycles=[run["max_cycles"] for run in runs],
        )
        assert _measured(outcomes[0].result) == STAGE_ROWS
        assert min(
            _measured(outcome.result) for outcome in outcomes[1:]
        ) > STAGE_ROWS
        _assert_lanes_match(
            batched, outcomes, engines(ReferenceFastEngine), runs
        )
