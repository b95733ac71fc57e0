"""Performance guards for the two-level perf layer, with a JSON receipt.

Two guarded claims (see docs/performance.md):

1. **Fused kernel**: a :class:`repro.sim.fast.FastEngine` run (a
   one-lane run of the lane kernel, :mod:`repro.sim.batch`) must
   sustain at least ``KERNEL_FLOOR`` (1.3x) the samples/sec of the
   pinned pre-fusion kernel
   (:class:`tests.reference_kernel.ReferenceFastEngine`, a test
   fixture).  The baseline is frozen source, so the comparison cannot
   drift with unrelated commits.  Target (recorded, not asserted):
   >= 1.5x.
2. **Parallel executor**: fanning a 4-benchmark x 3-policy matrix over
   worker processes must beat the serial loop by at least
   ``EXECUTOR_FLOOR`` (2.0x).  Skipped on machines with fewer than 4
   cores (a process pool cannot beat serial without cores to run on);
   CI provides the multi-core runner.  Target (recorded): >= 3x on an
   8-way full-suite sweep.

Every test appends its measurements to ``BENCH_sweep.json`` (override
the path with the ``BENCH_SWEEP_OUT`` environment variable) via the
atomic merge-by-section writer in :mod:`benchmarks._receipt`, so CI can
upload the receipt as the perf-trajectory baseline artifact.  Timing is
best-of-repeats ``perf_counter``; engines are rebuilt per repeat so no
thermal state leaks between timings.

Needs no pytest plugins:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_parallel.py -q
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks._receipt import update_receipt as _update_receipt
from repro.dtm.policies import make_policy
from repro.sim.fast import FastEngine
from repro.sim.parallel import matrix_specs, run_specs
from repro.thermal.floorplan import Floorplan
from repro.workloads.profiles import get_profile
from tests.reference_kernel import ReferenceFastEngine

#: Required fused-kernel samples/sec multiple over the pinned reference.
KERNEL_FLOOR = 1.3
#: Aspirational single-run throughput target (recorded in the receipt).
KERNEL_TARGET = 1.5

#: Required executor wall-clock multiple over the serial loop.
EXECUTOR_FLOOR = 2.0
#: Aspirational 8-way full-suite target (recorded in the receipt).
EXECUTOR_TARGET = 3.0

#: The executor benchmark matrix (12 runs, ISSUE-specified shape).
EXECUTOR_BENCHMARKS = ("gcc", "gzip", "art", "mesa")
EXECUTOR_POLICIES = ("toggle1", "pi", "pid")

#: Instruction budget per run: long enough that pool startup amortizes.
INSTRUCTIONS = 1_500_000

#: Kernel benchmark budget and repeats.
KERNEL_INSTRUCTIONS = 2_000_000
REPEATS = 3


def _time_kernel(engine_cls) -> tuple[float, int]:
    """Best-of-repeats wall-clock and the (identical) sample count."""
    floorplan = Floorplan.default()
    best = float("inf")
    samples = 0
    for _ in range(REPEATS):
        engine = engine_cls(
            get_profile("gcc"),
            policy=make_policy("pid", floorplan),
            floorplan=floorplan,
            seed=1,
        )
        start = time.perf_counter()
        result = engine.run(KERNEL_INSTRUCTIONS)
        best = min(best, time.perf_counter() - start)
        samples = result.cycles // engine.dtm_config.sampling_interval
    return best, samples


def test_fused_kernel_beats_pinned_reference():
    """Fused sample loop >= 1.3x the frozen pre-fusion kernel."""
    fused_seconds, fused_samples = _time_kernel(FastEngine)
    reference_seconds, reference_samples = _time_kernel(ReferenceFastEngine)
    assert fused_samples == reference_samples  # bit-identity sanity
    fused_rate = fused_samples / fused_seconds
    reference_rate = reference_samples / reference_seconds
    speedup = fused_rate / reference_rate
    _update_receipt(
        "kernel",
        {
            "instructions": KERNEL_INSTRUCTIONS,
            "samples": fused_samples,
            "fused_samples_per_sec": round(fused_rate, 1),
            "reference_samples_per_sec": round(reference_rate, 1),
            "speedup": round(speedup, 3),
            "floor": KERNEL_FLOOR,
            "target": KERNEL_TARGET,
        },
    )
    assert speedup >= KERNEL_FLOOR, (
        f"fused kernel only {speedup:.2f}x the pinned reference "
        f"({fused_rate:,.0f} vs {reference_rate:,.0f} samples/s); "
        f"floor is {KERNEL_FLOOR}x"
    )


def _time_matrix(jobs: int, specs) -> float:
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        run_specs(specs, jobs=jobs)
        best = min(best, time.perf_counter() - start)
    return best


def test_executor_beats_serial_sweep():
    """Process-pool matrix >= 2x serial (needs >= 4 cores; CI enforces)."""
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"executor speedup needs >= 4 cores (have {cores})")
    jobs = min(8, cores)
    specs = matrix_specs(
        EXECUTOR_BENCHMARKS,
        EXECUTOR_POLICIES,
        instructions=INSTRUCTIONS,
    )
    serial_seconds = _time_matrix(1, specs)
    parallel_seconds = _time_matrix(jobs, specs)
    speedup = serial_seconds / parallel_seconds
    _update_receipt(
        "executor",
        {
            "matrix": (
                f"{len(EXECUTOR_BENCHMARKS)} benchmarks x "
                f"{len(EXECUTOR_POLICIES)} policies"
            ),
            "instructions_per_run": INSTRUCTIONS,
            "jobs": jobs,
            "serial_seconds": round(serial_seconds, 3),
            "parallel_seconds": round(parallel_seconds, 3),
            "speedup": round(speedup, 3),
            "floor": EXECUTOR_FLOOR,
            "target": EXECUTOR_TARGET,
        },
    )
    assert speedup >= EXECUTOR_FLOOR, (
        f"executor only {speedup:.2f}x serial with jobs={jobs} "
        f"({serial_seconds:.2f}s -> {parallel_seconds:.2f}s); "
        f"floor is {EXECUTOR_FLOOR}x"
    )


def test_full_suite_sweep_receipt():
    """8-way full-suite sweep measurement (opt-in: BENCH_FULL_SUITE=1).

    Records the headline number -- the whole benchmark suite under
    three policies plus baseline, serial vs 8 workers -- without
    gating local runs on an expensive sweep; the CI sweep-performance
    job enables it and uploads the receipt.
    """
    if os.environ.get("BENCH_FULL_SUITE") != "1":
        pytest.skip("set BENCH_FULL_SUITE=1 to run the full-suite sweep")
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"full-suite sweep needs >= 4 cores (have {cores})")
    from repro.workloads.profiles import BENCHMARKS

    jobs = min(8, cores)
    specs = matrix_specs(
        tuple(BENCHMARKS),
        ("toggle1", "pi", "pid"),
        include_baseline=True,
        instructions=INSTRUCTIONS,
    )
    serial_seconds = _time_matrix(1, specs)
    parallel_seconds = _time_matrix(jobs, specs)
    speedup = serial_seconds / parallel_seconds
    _update_receipt(
        "full_suite",
        {
            "runs": len(specs),
            "instructions_per_run": INSTRUCTIONS,
            "jobs": jobs,
            "serial_seconds": round(serial_seconds, 3),
            "parallel_seconds": round(parallel_seconds, 3),
            "speedup": round(speedup, 3),
            "floor": EXECUTOR_FLOOR,
            "target": EXECUTOR_TARGET,
        },
    )
    assert speedup >= EXECUTOR_FLOOR, (
        f"full-suite sweep only {speedup:.2f}x serial with jobs={jobs}; "
        f"floor is {EXECUTOR_FLOOR}x"
    )
