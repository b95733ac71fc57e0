"""Ablation A4: number of discrete toggling duty levels.

The paper's actuator exposes eight evenly spaced duty levels
(Section 5.3).  This sweep varies the level count from 2 (pure
bang-bang) to 64 (near-continuous) under the PID policy and reports
how much resolution the controller actually needs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import DTMConfig
from repro.experiments.common import benchmark_budget
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.sim.parallel import WorkSpec, run_specs

DEFAULT_LEVELS = (2, 3, 4, 8, 16, 64)


def run(
    benchmark: str = "gcc",
    policy: str = "pid",
    levels: tuple[int, ...] = DEFAULT_LEVELS,
    quick: bool = False,
) -> ExperimentResult:
    """Sweep the actuator's duty-quantization level count."""
    budget = benchmark_budget(benchmark, quick)
    baseline, *results = run_specs(
        [WorkSpec(benchmark, "none", instructions=budget)]
        + [
            WorkSpec(
                benchmark,
                policy,
                instructions=budget,
                dtm_config=replace(DTMConfig(), toggle_levels=level_count),
            )
            for level_count in levels
        ]
    )
    rows = []
    for level_count, result in zip(levels, results):
        rows.append(
            {
                "levels": level_count,
                "pct_ipc": percent(result.relative_ipc(baseline)),
                "pct_emergency": percent(result.emergency_fraction),
                "max_temp_c": result.max_temperature,
                "engaged_pct": percent(result.engaged_fraction),
            }
        )
    text = format_table(
        rows,
        columns=(
            ("levels", "duty levels", "d"),
            ("pct_ipc", "%IPC", ".2f"),
            ("pct_emergency", "em%", ".4f"),
            ("max_temp_c", "max T (C)", ".3f"),
            ("engaged_pct", "engaged %", ".1f"),
        ),
    )
    return ExperimentResult(
        experiment_id="A4",
        title="Duty-quantization ablation (number of toggling levels)",
        rows=rows,
        text=text,
        notes=f"Workload {benchmark}, policy {policy}; paper default is 8 levels.",
    )
