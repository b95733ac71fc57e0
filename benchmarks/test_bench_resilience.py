"""Overhead guard for the fault-tolerant sweep orchestrator.

``run_specs`` and ``run_outcomes`` run on one executor: ``run_specs``
without options is its fail-fast mode, which stops at the first
failure, while the fault-tolerant mode adds per-spec bookkeeping
(failure isolation, retry accounting, optional journal writes).  The
``legacy``/``classic`` side of each ratio below (names kept for the
receipt keys) is that fail-fast mode.  On a healthy sweep -- no faults,
no retries -- the bookkeeping must stay in the noise.  Serially, an
orchestrated sweep may take at most ``ORCHESTRATOR_CEILING`` (1.5x)
the fail-fast sweep's wall-clock on the same matrix; on a two-worker
lane-batched pool (``jobs=2, batch=4``) at most ``POOLED_CEILING``
(1.25x) the fail-fast batched pool's.  The generous ceilings absorb scheduler jitter on small
CI machines; the recorded target is ~1.05x for both.  The pooled ratio
needs two cores: on a smaller machine its receipt section says so.

Checkpointing is measured separately (journal lines are fsync'd, so it
is disk-bound by design) and recorded in the receipt without a floor.

Appends measurements to ``BENCH_sweep.json`` like the other benchmarks
(override with ``BENCH_SWEEP_OUT``):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_resilience.py -q
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks._receipt import update_receipt as _update_receipt
from repro.sim.parallel import SweepOptions, matrix_specs, run_outcomes, run_specs

#: Maximum orchestrated / fail-fast wall-clock ratio on a fault-free sweep.
ORCHESTRATOR_CEILING = 1.5
#: Aspirational ratio (recorded in the receipt, not asserted).
ORCHESTRATOR_TARGET = 1.05
#: Maximum orchestrated / fail-fast ratio on a fault-free batched pool.
POOLED_CEILING = 1.25

BENCHMARKS = ("gcc", "gzip")
POLICIES = ("none", "pid")
INSTRUCTIONS = 400_000
REPEATS = 3
#: Pooled matrix: two 4-lane groups, one per worker, each long enough
#: that pool start-up does not dominate the ratio.
POOLED_BENCHMARKS = ("gcc", "gzip", "art", "mesa")
POOLED_INSTRUCTIONS = 2_000_000
POOLED_JOBS = 2
POOLED_BATCH = 4


def _specs():
    return matrix_specs(BENCHMARKS, POLICIES, instructions=INSTRUCTIONS)


def _best_of(callable_, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_orchestrator_overhead_is_bounded():
    """Fault-free orchestrated sweep <= 1.5x the fail-fast one."""
    specs = _specs()
    legacy = _best_of(lambda: run_specs(specs, jobs=1))
    orchestrated = _best_of(
        lambda: run_outcomes(specs, jobs=1, options=SweepOptions())
    )
    ratio = orchestrated / legacy
    _update_receipt(
        "resilience_overhead",
        {
            "matrix": f"{len(BENCHMARKS)}x{len(POLICIES)}",
            "instructions": INSTRUCTIONS,
            "legacy_seconds": round(legacy, 4),
            "orchestrated_seconds": round(orchestrated, 4),
            "ratio": round(ratio, 4),
            "ceiling": ORCHESTRATOR_CEILING,
            "target": ORCHESTRATOR_TARGET,
        },
    )
    assert ratio <= ORCHESTRATOR_CEILING, (
        f"orchestrated sweep is {ratio:.2f}x the fail-fast one "
        f"(ceiling {ORCHESTRATOR_CEILING}x)"
    )


def test_pooled_orchestrator_overhead_is_bounded():
    """Fault-free orchestrated batched pool <= 1.25x the fail-fast one."""
    cores = os.cpu_count() or 1
    if cores < POOLED_JOBS:
        _update_receipt(
            "resilience_overhead_pooled",
            {"skipped": f"needs >={POOLED_JOBS} cores (have {cores})"},
        )
        pytest.skip(f"needs >={POOLED_JOBS} cores (have {cores})")
    specs = matrix_specs(
        POOLED_BENCHMARKS, POLICIES, instructions=POOLED_INSTRUCTIONS
    )
    classic = _best_of(
        lambda: run_specs(
            specs, jobs=POOLED_JOBS, batch=POOLED_BATCH, cache=False
        )
    )
    orchestrated = _best_of(
        lambda: run_outcomes(
            specs,
            jobs=POOLED_JOBS,
            options=SweepOptions(batch=POOLED_BATCH),
            cache=False,
        )
    )
    ratio = orchestrated / classic
    _update_receipt(
        "resilience_overhead_pooled",
        {
            "matrix": f"{len(POOLED_BENCHMARKS)}x{len(POLICIES)}",
            "instructions": POOLED_INSTRUCTIONS,
            "jobs": POOLED_JOBS,
            "batch": POOLED_BATCH,
            "classic_seconds": round(classic, 4),
            "orchestrated_seconds": round(orchestrated, 4),
            "ratio": round(ratio, 4),
            "ceiling": POOLED_CEILING,
            "target": ORCHESTRATOR_TARGET,
        },
    )
    assert ratio <= POOLED_CEILING, (
        f"orchestrated batched pool is {ratio:.2f}x the fail-fast one "
        f"(ceiling {POOLED_CEILING}x)"
    )


def test_checkpoint_write_cost_recorded(tmp_path):
    """Record (not assert) the fsync'd journal's cost per spec."""
    specs = _specs()
    plain = _best_of(
        lambda: run_outcomes(specs, jobs=1, options=SweepOptions()),
        repeats=2,
    )

    def checkpointed():
        run_outcomes(
            specs,
            jobs=1,
            options=SweepOptions(
                checkpoint_path=tmp_path / "bench.ckpt.jsonl"
            ),
        )

    journaled = _best_of(checkpointed, repeats=2)
    _update_receipt(
        "resilience_checkpoint",
        {
            "specs": len(specs),
            "plain_seconds": round(plain, 4),
            "journaled_seconds": round(journaled, 4),
            "seconds_per_spec": round(
                max(0.0, journaled - plain) / len(specs), 5
            ),
        },
    )
