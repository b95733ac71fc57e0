"""Ablation A2: controller sampling interval.

The paper samples every 1000 cycles (667 ns) and notes it "could likely
have used a longer sampling interval without significantly affecting
accuracy, since the thermal time constants are ... much greater than
667 nanosec."  This sweep re-tunes and re-runs the PID policy at
sampling intervals from 500 to 32 K cycles.  (Retuning happens
automatically: the plant's dead time is half the sampling period.)
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import DTMConfig
from repro.experiments.common import benchmark_budget
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.sim.parallel import WorkSpec, run_specs

DEFAULT_INTERVALS = (500, 1000, 2000, 4000, 8000, 16000, 32000)


def run(
    benchmark: str = "gcc",
    policy: str = "pid",
    intervals: tuple[int, ...] = DEFAULT_INTERVALS,
    quick: bool = False,
) -> ExperimentResult:
    """Sweep the sampling interval for one CT policy."""
    budget = benchmark_budget(benchmark, quick)
    results = iter(run_specs([
        WorkSpec(
            benchmark,
            name,
            instructions=budget,
            dtm_config=replace(DTMConfig(), sampling_interval=interval),
        )
        for interval in intervals
        for name in ("none", policy)
    ]))
    rows = []
    for interval in intervals:
        baseline, result = next(results), next(results)
        rows.append(
            {
                "interval_cycles": interval,
                "interval_us": interval / 1500.0,
                "pct_ipc": percent(result.relative_ipc(baseline)),
                "pct_emergency": percent(result.emergency_fraction),
                "max_temp_c": result.max_temperature,
            }
        )
    text = format_table(
        rows,
        columns=(
            ("interval_cycles", "interval (cyc)", "d"),
            ("interval_us", "interval (us)", ".2f"),
            ("pct_ipc", "%IPC", ".2f"),
            ("pct_emergency", "em%", ".4f"),
            ("max_temp_c", "max T (C)", ".3f"),
        ),
    )
    notes = (
        f"Workload {benchmark}, policy {policy}.  Intervals well below the\n"
        "~175 us block time constant behave identically; degradation only\n"
        "appears once the interval becomes a sizable fraction of it."
    )
    return ExperimentResult(
        experiment_id="A2",
        title="Sampling-interval ablation",
        rows=rows,
        text=text,
        notes=notes,
    )
