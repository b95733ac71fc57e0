"""Shared infrastructure for experiment drivers.

Characterization experiments (Tables 4-10) all consume the same
unmanaged suite runs, with their histories and traces, so they are
computed once per process and cached per instruction budget.
Budgets are per-benchmark: at least two full passes over the profile's
phase sequence (bursty profiles like ``art`` need a full period to show
their duty cycle).
"""

from __future__ import annotations

from functools import lru_cache

from repro.config import TelemetryConfig
from repro.sim.parallel import WorkSpec, run_specs
from repro.sim.results import RunResult
from repro.telemetry import Telemetry, TraceRecord, merge_telemetry
from repro.workloads.profiles import BENCHMARKS, get_profile

#: Floor on the per-benchmark instruction budget for characterization.
MIN_INSTRUCTIONS = 2_000_000

#: Reduced budget used by ``quick=True`` drivers (tests, smoke runs).
#: Still long enough to get past the initial heating transient
#: (~3 block time constants = ~800 K cycles).
QUICK_INSTRUCTIONS = 1_500_000


def benchmark_budget(name: str, quick: bool = False) -> float:
    """Instruction budget covering >= 2 full phase loops of a profile."""
    if quick:
        return QUICK_INSTRUCTIONS
    return max(MIN_INSTRUCTIONS, 2 * get_profile(name).total_instructions)


#: Instructions skipped before characterization statistics start
#: (several block thermal time constants; the analogue of the paper's
#: 2-billion-instruction fast-forward).
WARMUP_INSTRUCTIONS = 1_000_000


def _suite_specs(quick: bool, seed: int) -> list[WorkSpec]:
    """The unmanaged characterization matrix: one spec per benchmark."""
    return [
        WorkSpec(
            name,
            "none",
            instructions=benchmark_budget(name, quick),
            seed=seed,
            record_history=True,
            warmup_instructions=WARMUP_INSTRUCTIONS,
        )
        for name in BENCHMARKS
    ]


@lru_cache(maxsize=8)
def suite_runs(
    quick: bool, seed: int
) -> tuple[dict[str, RunResult], dict[str, Telemetry]]:
    """The unmanaged suite, each benchmark run once, cached.

    Each benchmark runs as its own one-spec sweep into a local
    :class:`~repro.telemetry.core.Telemetry`, which keeps per-benchmark
    trace extraction unambiguous.  Every run records its history
    (Tables 9-10 read it) and its trace (Table 7 reads it), so Tables
    4-10 share one set of runs, and a result cache replays them all.
    Returns ``(results, sinks)``, both keyed by benchmark.
    """
    results: dict[str, RunResult] = {}
    sinks: dict[str, Telemetry] = {}
    for spec in _suite_specs(quick, seed):
        local = Telemetry(TelemetryConfig())
        [results[spec.benchmark]] = run_specs([spec], telemetry=local)
        sinks[spec.benchmark] = local
    return results, sinks


def characterize_suite(
    quick: bool = False, seed: int = 0
) -> dict[str, RunResult]:
    """Unmanaged (no-DTM) runs of all 18 benchmarks, with history."""
    return suite_runs(quick, seed)[0]


def characterize_suite_traced(
    quick: bool = False, seed: int = 0, telemetry=None
) -> tuple[dict[str, RunResult], dict[str, list[TraceRecord]]]:
    """Unmanaged suite runs with per-benchmark DTM-sample traces.

    The runs of :func:`characterize_suite`; returns ``(results,
    traces)`` with ``traces[name]`` the retained
    :class:`~repro.telemetry.trace.TraceRecord` list for ``name``.
    Each run's local telemetry is folded into the optional shared
    ``telemetry`` sink (records, events, metrics), in benchmark order.
    """
    results, sinks = suite_runs(quick, seed)
    traces: dict[str, list[TraceRecord]] = {}
    for name, local in sinks.items():
        traces[name] = local.trace.records()
        merge_telemetry(telemetry, local)
    return results, traces
