"""Extension E1: a hierarchical DTM deployment (paper Section 2.1).

"A realistic implementation might employ a hierarchy of DTM
techniques: a low-cost mechanism like toggling might be used with a
high trigger threshold.  Only when temperature gets truly close to
emergency would auxiliary mechanisms ... be employed."

We run the PID policy at an *aggressive* setpoint (101.9 C, beyond
what the paper dared alone) under an adversarial low-reading sensor,
backed by an emergency full-stop.  The backup converts the aggressive
configuration from unsafe-in-the-tail back to emergency-free.
"""

from __future__ import annotations

from repro.experiments.common import benchmark_budget
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.sim.parallel import WorkSpec, run_specs
from repro.thermal.sensors import SensorConfig

DEFAULT_BENCHMARKS = ("gcc", "equake")

#: The slightly low-reading sensor every managed run sees.
SENSOR = SensorConfig(noise_sigma=0.03, offset=-0.1, seed=2)

#: (label, PID setpoint, backup trigger or None).  The backup trigger
#: is placed below the emergency threshold by more than the worst-case
#: sensor error, so a low-reading sensor cannot hide a real crossing.
CASES = (
    ("pid@101.8", 101.8, None),
    ("pid@101.9", 101.9, None),
    ("hier(pid@101.9)", 101.9, 101.85),
)


def specs(benchmarks: tuple[str, ...], quick: bool) -> list[WorkSpec]:
    """Per benchmark: the unmanaged baseline, then one spec per case."""
    chosen = []
    for benchmark in benchmarks:
        budget = benchmark_budget(benchmark, quick)
        chosen.append(WorkSpec(benchmark, "none", instructions=budget))
        chosen.extend(
            WorkSpec(
                benchmark,
                "pid",
                instructions=budget,
                setpoint=setpoint,
                backup_trigger=trigger,
                sensor=SENSOR,
            )
            for _, setpoint, trigger in CASES
        )
    return chosen


def run(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    quick: bool = False,
) -> ExperimentResult:
    """Compare plain vs hierarchical PID at an aggressive setpoint.

    A slightly low-reading sensor (-0.1 K offset) stresses the guard
    band, which is where the backup earns its keep.  Every run builds
    its own sensor from :data:`SENSOR`, so each row's noise stream is
    independent of the runs before it.
    """
    results = iter(run_specs(specs(benchmarks, quick)))
    rows = []
    for benchmark in benchmarks:
        baseline = next(results)
        for label, _, _ in CASES:
            result = next(results)
            rows.append(
                {
                    "benchmark": benchmark,
                    "policy": label,
                    "pct_ipc": percent(result.relative_ipc(baseline)),
                    "pct_emergency": percent(result.emergency_fraction),
                    "max_temp_c": result.max_temperature,
                    "backup_engaged": int(
                        result.extra.get("backup_engagements", 0)
                    ),
                }
            )
    text = format_table(
        rows,
        columns=(
            ("benchmark", "benchmark", None),
            ("policy", "policy", None),
            ("pct_ipc", "%IPC", ".2f"),
            ("pct_emergency", "em%", ".4f"),
            ("max_temp_c", "max T (C)", ".3f"),
            ("backup_engaged", "backup hits", "d"),
        ),
    )
    notes = (
        "Sensor reads 0.1 K low (plus noise), eroding the guard band.\n"
        "The aggressive setpoint alone is unsafe under sensor error; the\n"
        "backup restores zero emergencies at roughly the conservative\n"
        "setpoint's throughput.  Its value is insurance: workloads or\n"
        "sensors that behave get the aggressive setpoint's speed, and the\n"
        "ones that do not are contained automatically."
    )
    return ExperimentResult(
        experiment_id="E1",
        title="Hierarchical DTM: aggressive PID + emergency backup",
        rows=rows,
        text=text,
        notes=notes,
    )
