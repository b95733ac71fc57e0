"""Chunk-boundary parity of the deferred threshold pass.

Both sample kernels stage each measured sample and evaluate the
emergency/stress fractions once per :data:`~repro.sim.stage.STAGE_ROWS`
rows (:mod:`repro.sim.stage`).  The gate suites' runs are a few hundred
samples long, so they never leave the first chunk.  These runs cross
several chunks, end exactly on a chunk boundary, turn non-finite in
the middle of one, and run ragged lanes; each is compared field by
field with the pinned per-sample reference or with serial runs:
results, histories, every retained trace record, the event stream and
the metrics snapshot (minus the wall-clock latency histogram).
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
from repro.sim.reference import ReferenceFastEngine
from repro.sim.stage import STAGE_ROWS
from repro.sim.sweep import build_engine
from repro.telemetry.core import Telemetry
from repro.thermal.floorplan import Floorplan
from repro.workloads.profiles import get_profile

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


def _lane_engines(lanes, telemetry=True):
    return [
        build_engine(
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
        serial = _lane_engines(LANES)
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
        ``at``; the other lanes run on to their serial results."""
        at = 2 * STAGE_ROWS + 77

        def poison(advance, batched):
            calls = [0]

            def poisoned(start, powers, cycles):
                end, steady = advance(start, powers, cycles)
                calls[0] += 1
                if calls[0] == at:
                    end = end.copy()
                    end[0 if batched else slice(None)] = math.nan
                return end, steady

            return poisoned

        engines = _lane_engines(LANES)
        engines[0].thermal.advance_batch = poison(
            engines[0].thermal.advance_batch, batched=True
        )
        outcomes = BatchEngine(engines).run_outcomes(
            instructions=[lane[4] for lane in LANES],
            warmup_instructions=[lane[5] for lane in LANES],
        )
        serial = _lane_engines(LANES)
        serial[0].thermal.advance_from = poison(
            serial[0].thermal.advance_from, batched=False
        )
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

    def test_lanes_without_sinks_match_serial_runs(self):
        engines = _lane_engines(LANES, telemetry=False)
        results = BatchEngine(engines).run(
            instructions=[lane[4] for lane in LANES],
            warmup_instructions=[lane[5] for lane in LANES],
        )
        for lane, result, engine in zip(
            LANES, results, _lane_engines(LANES, telemetry=False)
        ):
            assert_results_equal(
                result, engine.run(lane[4], warmup_instructions=lane[5])
            )
