"""Performance guard for the lane-batched kernel, with a JSON receipt.

The guarded claim (ISSUE acceptance criterion; see
docs/performance.md): a :class:`repro.sim.batch.BatchEngine` advancing
B = 8 lanes through one structure-of-arrays kernel must sustain at
least ``BATCH_FLOOR`` (2.0x) the aggregate samples/sec of running the
same 8 engines sequentially.  Both sides run in this process on one
core -- the speedup is pure vectorization (one stacked thermal
advance, one broadcast threshold scan, one duty/power broadcast per
sampling interval instead of 8 scalar passes), so the guard is safe on
single-CPU runners.

The receipt also records, without asserting, the lane kernel's cost
per step at k = 1 and k = 8 live lanes and its one-lane speed against
the scalar kernel (docs/performance.md, "The cost of a step").

The measurement appends a ``batch`` section to ``BENCH_sweep.json``
(override with ``BENCH_SWEEP_OUT``), extending the same receipt the
kernel/executor guards write, so CI uploads one perf-trajectory
artifact covering all three performance levels.  Timing is
best-of-repeats ``perf_counter``; engines are rebuilt per repeat so no
thermal state leaks between timings.

Needs no pytest plugins:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_batch.py -q
"""

from __future__ import annotations

import time

from benchmarks._receipt import update_receipt as _update_receipt
from repro.sim.batch import BatchEngine
from repro.sim.parallel import WorkSpec
from repro.sim.sweep import build_engine

#: Required aggregate samples/sec multiple over sequential lanes.
BATCH_FLOOR = 2.0
#: Aspirational target (recorded in the receipt, not asserted).
BATCH_TARGET = 3.0

#: Lane count (the ISSUE's acceptance point).
LANES = 8

#: Instruction budget per lane: long enough to amortize lane setup.
INSTRUCTIONS = 1_000_000

REPEATS = 3


def _build_lanes():
    """Eight compatible lanes: distinct seeds, one benchmark/policy."""
    return [
        build_engine(WorkSpec("gcc", "pid", seed=seed))
        for seed in range(LANES)
    ]


def _time_sequential() -> tuple[float, int]:
    """Best-of-repeats wall clock for 8 serial runs + total samples."""
    best = float("inf")
    samples = 0
    for _ in range(REPEATS):
        engines = _build_lanes()
        start = time.perf_counter()
        results = [
            engine.run(instructions=INSTRUCTIONS) for engine in engines
        ]
        best = min(best, time.perf_counter() - start)
        samples = sum(
            result.cycles // engine.dtm_config.sampling_interval
            for engine, result in zip(engines, results)
        )
    return best, samples


def _time_batched() -> tuple[float, int, int]:
    """Best-of-repeats wall clock for one 8-lane batched run.

    Returns ``(seconds, samples, steps)``: the lanes' total samples and
    the kernel's step count (its longest lane's).
    """
    best = float("inf")
    samples = steps = 0
    for _ in range(REPEATS):
        engines = _build_lanes()
        batch = BatchEngine(engines)
        start = time.perf_counter()
        results = batch.run(instructions=INSTRUCTIONS)
        best = min(best, time.perf_counter() - start)
        samples = sum(
            result.cycles // engine.dtm_config.sampling_interval
            for engine, result in zip(engines, results)
        )
        steps = max(engine.manager.samples for engine in engines)
    return best, samples, steps


def _time_one_lane() -> tuple[float, float, int]:
    """Best-of-repeats wall clock of lane 0 as a one-lane batch and on
    the scalar kernel: ``(lane_seconds, scalar_seconds, steps)``."""
    lane = scalar = float("inf")
    steps = 0
    for _ in range(REPEATS):
        engine = _build_lanes()[0]
        start = time.perf_counter()
        BatchEngine([engine]).run(instructions=INSTRUCTIONS)
        lane = min(lane, time.perf_counter() - start)
        steps = engine.manager.samples
        engine = _build_lanes()[0]
        start = time.perf_counter()
        engine.run(instructions=INSTRUCTIONS)
        scalar = min(scalar, time.perf_counter() - start)
    return lane, scalar, steps


def test_batch_kernel_beats_sequential_lanes():
    """B=8 batched kernel >= 2x aggregate throughput of 8 serial runs."""
    sequential_seconds, sequential_samples = _time_sequential()
    batched_seconds, batched_samples, batched_steps = _time_batched()
    assert batched_samples == sequential_samples  # bit-identity sanity
    lane_seconds, scalar_seconds, lane_steps = _time_one_lane()
    sequential_rate = sequential_samples / sequential_seconds
    batched_rate = batched_samples / batched_seconds
    speedup = batched_rate / sequential_rate
    _update_receipt(
        "batch",
        {
            "lanes": LANES,
            "instructions_per_lane": INSTRUCTIONS,
            "samples": batched_samples,
            "sequential_samples_per_sec": round(sequential_rate, 1),
            "batched_samples_per_sec": round(batched_rate, 1),
            "speedup": round(speedup, 3),
            "floor": BATCH_FLOOR,
            "target": BATCH_TARGET,
            "step_us_k1": round(lane_seconds / lane_steps * 1e6, 2),
            "step_us_k8": round(batched_seconds / batched_steps * 1e6, 2),
            "one_lane_vs_scalar": round(scalar_seconds / lane_seconds, 3),
        },
    )
    assert speedup >= BATCH_FLOOR, (
        f"batched kernel only {speedup:.2f}x sequential at B={LANES} "
        f"({batched_rate:,.0f} vs {sequential_rate:,.0f} samples/s); "
        f"floor is {BATCH_FLOOR}x"
    )
