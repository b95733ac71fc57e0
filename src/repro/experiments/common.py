"""Shared infrastructure for experiment drivers.

Characterization experiments (Tables 4-10) all consume the same
unmanaged suite run, one :func:`~repro.sim.parallel.run_specs` matrix,
so it is computed once per process and cached per instruction budget.
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


def _suite_specs(
    quick: bool, record_history: bool, seed: int
) -> list[WorkSpec]:
    """The unmanaged characterization matrix: one spec per benchmark."""
    return [
        WorkSpec(
            name,
            "none",
            instructions=benchmark_budget(name, quick),
            seed=seed,
            record_history=record_history,
            warmup_instructions=WARMUP_INSTRUCTIONS,
        )
        for name in BENCHMARKS
    ]


@lru_cache(maxsize=8)
def characterize_suite(
    quick: bool = False, seed: int = 0
) -> dict[str, RunResult]:
    """Unmanaged (no-DTM) runs of all 18 benchmarks, cached.

    Every run records its history (Tables 9-10 read it), so Tables
    4-6 and 8-10 share one matrix.
    """
    return dict(zip(BENCHMARKS, run_specs(_suite_specs(quick, True, seed))))


def characterize_suite_traced(
    quick: bool = False, seed: int = 0, telemetry=None
) -> tuple[dict[str, RunResult], dict[str, list[TraceRecord]]]:
    """Unmanaged suite runs with per-benchmark DTM-sample traces.

    The specs of :func:`characterize_suite` without history (telemetry
    is purely observational, so the :class:`RunResult` values match
    apart from ``history``), but each run also captures the shared
    trace schema; returns ``(results, traces)`` with ``traces[name]``
    the retained :class:`~repro.telemetry.trace.TraceRecord` list for
    ``name``.

    Each benchmark runs as its own one-spec sweep into a local
    :class:`~repro.telemetry.core.Telemetry`, which is then folded into
    the optional shared ``telemetry`` sink (records, events, metrics),
    keeping per-benchmark extraction unambiguous even when the sink is
    shared across many experiments.  Not cached: trace payloads are
    large and callers usually export them.
    """
    results: dict[str, RunResult] = {}
    traces: dict[str, list[TraceRecord]] = {}
    for spec in _suite_specs(quick, False, seed):
        local = Telemetry(TelemetryConfig())
        [results[spec.benchmark]] = run_specs([spec], telemetry=local)
        traces[spec.benchmark] = local.trace.records()
        merge_telemetry(telemetry, local)
    return results, traces
