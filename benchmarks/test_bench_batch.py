"""Performance guard for the lane-batched kernel, with a JSON receipt.

The guarded claim (see docs/performance.md): a
:class:`repro.sim.batch.BatchEngine` advancing B = 8 lanes through one
structure-of-arrays kernel must sustain at least ``BATCH_FLOOR``
(1.1x) the aggregate samples/sec of running the same 8 engines
sequentially, each as its own run (a one-lane batch:
:meth:`~repro.sim.fast.FastEngine.run` is one).  Both sides run in
this process on one core, so the guard is safe on single-CPU runners.
Both sides step through the compiled lane step, one C call a step, so
what the batch saves is that call's fixed cost and the kernel's
per-step bookkeeping, paid once a step for 8 lanes against 8 one-lane
steps; the per-lane Python pass (phase lookup, jitter, ``on_sample``)
costs the same on both sides.  A batched step that lost the compiled
form (a k = 8 step on the numpy pass) reads about 0.9x and fails.

The receipt also records, without asserting, the lane kernel's cost
per step at k = 1 (the sequential runs) and k = 8 live lanes
(docs/performance.md, "The cost of a step").

The measurement appends a ``batch`` section to ``BENCH_sweep.json``
(override with ``BENCH_SWEEP_OUT``), extending the same receipt the
kernel/executor guards write, so CI uploads one perf-trajectory
artifact covering all three performance levels.  Timing alternates a
sequential and a batched pass, ``PAIRS`` times, each pass on freshly
built engines so no thermal state leaks between timings; the guard
reads the median of the per-pair ratios, so a load spike on a shared
host skews one pair, not the verdict.  A pass is timed on the
process's CPU clock (``time.process_time``): both sides run on one
thread, and time the host gives to other processes is not the
kernel's.  The receipt records every pair's ratio.

Needs no pytest plugins:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_batch.py -q
"""

from __future__ import annotations

import time
from statistics import median

from benchmarks._receipt import update_receipt as _update_receipt
from repro.sim.batch import BatchEngine
from repro.sim.parallel import WorkSpec
from repro.sim.sweep import build_engine

#: Required aggregate samples/sec multiple over sequential lanes.  With
#: the compiled lane step, 30 whole runs on a shared 2-vCPU host read
#: 1.19-1.30x (median 1.23x); with k >= 2 steps routed back to the
#: numpy pass and k = 1 still compiled, 10 runs read 0.89-0.96x.  The
#: floor sits between the two, 8% under the lowest passing run.
BATCH_FLOOR = 1.1
#: Aspirational target (recorded in the receipt, not asserted).
BATCH_TARGET = 3.0

#: Lane count (the ISSUE's acceptance point).
LANES = 8

#: Instruction budget per lane: long enough to amortize lane setup.
INSTRUCTIONS = 1_000_000

#: Alternating (sequential, batched) timed pairs; the guard reads the
#: median pair.
PAIRS = 9


def _build_lanes():
    """Eight compatible lanes: distinct seeds, one benchmark/policy."""
    return [
        build_engine(WorkSpec("gcc", "pid", seed=seed))
        for seed in range(LANES)
    ]


def _samples(engines, results) -> int:
    return sum(
        result.cycles // engine.dtm_config.sampling_interval
        for engine, result in zip(engines, results)
    )


def _time_sequential() -> tuple[float, int]:
    """One timed pass of 8 one-lane runs: ``(seconds, samples)``."""
    engines = _build_lanes()
    start = time.process_time()
    results = [engine.run(instructions=INSTRUCTIONS) for engine in engines]
    return time.process_time() - start, _samples(engines, results)


def _time_batched() -> tuple[float, int, int]:
    """One timed pass of one 8-lane batched run.

    Returns ``(seconds, samples, steps)``: the lanes' total samples and
    the kernel's step count (its longest lane's).
    """
    engines = _build_lanes()
    batch = BatchEngine(engines)
    start = time.process_time()
    results = batch.run(instructions=INSTRUCTIONS)
    seconds = time.process_time() - start
    steps = max(engine.manager.samples for engine in engines)
    return seconds, _samples(engines, results), steps


def test_batch_kernel_beats_sequential_lanes():
    """B=8 batched kernel >= 1.1x aggregate throughput of 8 serial runs,
    in the median of alternating pairs."""
    pairs = [(_time_sequential(), _time_batched()) for _ in range(PAIRS)]
    sequential_samples = pairs[0][0][1]
    batched_samples, batched_steps = pairs[0][1][1:]
    for (_, seq_samples), (_, samples, steps) in pairs:
        # Bit-identity sanity: every pass runs the same samples.
        assert seq_samples == samples == batched_samples
        assert steps == batched_steps
    sequential_seconds = median(seq[0] for seq, _ in pairs)
    batched_seconds = median(batched[0] for _, batched in pairs)
    ratios = [seq[0] / batched[0] for seq, batched in pairs]
    speedup = median(ratios)
    sequential_rate = sequential_samples / sequential_seconds
    batched_rate = batched_samples / batched_seconds
    _update_receipt(
        "batch",
        {
            "lanes": LANES,
            "instructions_per_lane": INSTRUCTIONS,
            "samples": batched_samples,
            "pairs": PAIRS,
            # Median pass times of each side.
            "sequential_samples_per_sec": round(sequential_rate, 1),
            "batched_samples_per_sec": round(batched_rate, 1),
            # The median of the per-pair ratios, then every pair's.
            "speedup": round(speedup, 3),
            "pair_speedups": [round(ratio, 3) for ratio in ratios],
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
        f"in the median of {PAIRS} pairs (pairs: "
        f"{', '.join(f'{ratio:.2f}' for ratio in ratios)}); "
        f"floor is {BATCH_FLOOR}x"
    )
