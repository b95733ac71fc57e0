"""Performance guard for the lane-batched kernel, with a JSON receipt.

The guarded claim (see docs/performance.md): a
:class:`repro.sim.batch.BatchEngine` advancing B = 8 lanes through one
structure-of-arrays kernel must sustain at least ``BATCH_FLOOR``
(1.7x) the aggregate samples/sec of running the same 8 engines
sequentially, each as its own run (a one-lane batch:
:meth:`~repro.sim.fast.FastEngine.run` is one).  Both sides run in
this process on one core, so the guard is safe on single-CPU runners.
The speedup is no longer pure vectorization: a step with one live
lane skips the stacked pass and runs its arithmetic on Python floats,
so the sequential side is not eight times the stacked pass's fixed
cost.  What the batch still saves is that fixed cost, one stacked
thermal advance and one duty/power broadcast per sampling interval
for all 8 lanes, against 8 one-lane steps.

The receipt also records, without asserting, the lane kernel's cost
per step at k = 1 (the sequential runs) and k = 8 live lanes
(docs/performance.md, "The cost of a step").

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

#: Required aggregate samples/sec multiple over sequential lanes: the
#: lowest of five runs after one-lane steps moved to Python floats
#: (1.77-1.86x on a shared 2-vCPU host), rounded down.
BATCH_FLOOR = 1.7
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
    """Best-of-repeats wall clock for 8 one-lane runs + total samples."""
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


def test_batch_kernel_beats_sequential_lanes():
    """B=8 batched kernel >= 1.7x aggregate throughput of 8 serial runs."""
    sequential_seconds, sequential_samples = _time_sequential()
    batched_seconds, batched_samples, batched_steps = _time_batched()
    assert batched_samples == sequential_samples  # bit-identity sanity
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
            # Each sequential run is a one-lane batch with no warmup:
            # one step per sample.
            "step_us_k1": round(
                sequential_seconds / sequential_samples * 1e6, 2
            ),
            "step_us_k8": round(batched_seconds / batched_steps * 1e6, 2),
        },
    )
    assert speedup >= BATCH_FLOOR, (
        f"batched kernel only {speedup:.2f}x sequential at B={LANES} "
        f"({batched_rate:,.0f} vs {sequential_rate:,.0f} samples/s); "
        f"floor is {BATCH_FLOOR}x"
    )
