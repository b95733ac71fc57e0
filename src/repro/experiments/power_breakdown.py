"""Extension P1: where the power goes, and what DTM does to energy.

Two Wattch-style views the paper's evaluation doesn't print but its
infrastructure implies:

1. **per-structure power breakdown** of an unmanaged run -- mean power
   per monitored structure split into dynamic (activity) and idle
   (clock/leakage floor) components, with each structure's share; and
2. **energy per instruction under DTM** -- toggling lowers power but
   stretches runtime while the idle floor keeps burning, so aggressive
   throttling *raises* EPI even as it caps temperature.
"""

from __future__ import annotations

from repro.experiments.common import benchmark_budget
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.power.metrics import energy_summary, power_breakdown
from repro.sim.parallel import WorkSpec, run_specs
from repro.thermal.floorplan import Floorplan


def run(
    benchmark: str = "gcc",
    policies: tuple[str, ...] = ("toggle1", "m", "pid"),
    quick: bool = False,
) -> ExperimentResult:
    """Power breakdown + per-policy energy metrics on one benchmark."""
    budget = benchmark_budget(benchmark, quick)
    floorplan = Floorplan.default()
    baseline, *managed = run_specs(
        [WorkSpec(benchmark, "none", instructions=budget, record_history=True)]
        + [
            WorkSpec(benchmark, policy, instructions=budget)
            for policy in policies
        ]
    )
    assert baseline.history is not None
    breakdown_rows = [
        {
            "structure": entry.name,
            "total_w": entry.mean_total_w,
            "dynamic_w": entry.mean_dynamic_w,
            "idle_w": entry.mean_idle_w,
            "dynamic_pct": percent(entry.dynamic_share),
            "share_pct": percent(entry.fraction_of_monitored),
        }
        for entry in power_breakdown(baseline.history, floorplan)
    ]

    runs = {"none": baseline, **dict(zip(policies, managed))}
    energy_rows = [
        {
            "policy": entry.policy,
            "mean_power_w": entry.mean_power_w,
            "epi_nj": entry.energy_per_instruction_nj,
            "relative_epi": entry.relative_epi,
            "pct_ipc": percent(runs[entry.policy].relative_ipc(baseline)),
        }
        for entry in energy_summary(runs)
    ]

    text = "\n".join(
        [
            format_table(
                breakdown_rows,
                columns=(
                    ("structure", "structure", None),
                    ("total_w", "mean P (W)", ".2f"),
                    ("dynamic_w", "dynamic (W)", ".2f"),
                    ("idle_w", "idle (W)", ".2f"),
                    ("dynamic_pct", "dynamic %", ".1f"),
                    ("share_pct", "share of monitored %", ".1f"),
                ),
                title=f"{benchmark}: per-structure power breakdown (unmanaged)",
            ),
            "",
            format_table(
                energy_rows,
                columns=(
                    ("policy", "policy", None),
                    ("mean_power_w", "mean P (W)", ".1f"),
                    ("epi_nj", "EPI (nJ)", ".2f"),
                    ("relative_epi", "EPI vs none", ".3f"),
                    ("pct_ipc", "%IPC", ".1f"),
                ),
                title="energy per instruction under DTM",
            ),
        ]
    )
    notes = (
        "DTM is a temperature tool, not an energy tool: every throttling\n"
        "policy raises EPI (the idle floor burns through the stretched\n"
        "runtime), and the harsher the policy, the worse the energy."
    )
    return ExperimentResult(
        experiment_id="P1",
        title="Power breakdown and DTM energy accounting",
        rows=breakdown_rows + energy_rows,
        text=text,
        notes=notes,
        extras={"energy_rows": energy_rows},
    )
