"""Extension A6: sensor imperfection robustness (the paper's future work).

The paper assumes idealized sensors and flags realistic sensor
behaviour as "an important area for future work."  This sweep runs the
PID policy with Gaussian-noisy, offset, and quantized sensors on a hot
benchmark.  The paper's broader claim -- that feedback control remains
effective when the system is imperfectly modeled -- predicts the
controller should tolerate modest sensor error, with safety degrading
only when the error approaches the 0.2 degC guard band.
"""

from __future__ import annotations

from repro.experiments.common import benchmark_budget
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.sim.parallel import WorkSpec, run_specs
from repro.thermal.sensors import SensorConfig

#: (label, sensor model); ``None`` is the ideal sensor.
CASES = (
    ("ideal", None),
    ("noise 0.05K", SensorConfig(noise_sigma=0.05, seed=1)),
    ("noise 0.15K", SensorConfig(noise_sigma=0.15, seed=1)),
    ("offset -0.2K", SensorConfig(offset=-0.2)),
    ("offset +0.2K", SensorConfig(offset=0.2)),
    ("quantized 0.25K", SensorConfig(step=0.25)),
)


def run(benchmark: str = "gcc", policy: str = "pid", quick: bool = False) -> ExperimentResult:
    """Sweep sensor imperfections under one CT policy."""
    budget = benchmark_budget(benchmark, quick)
    baseline, *results = run_specs(
        [WorkSpec(benchmark, "none", instructions=budget)]
        + [
            WorkSpec(benchmark, policy, instructions=budget, sensor=sensor)
            for _, sensor in CASES
        ]
    )
    rows = []
    for (label, _), result in zip(CASES, results):
        rows.append(
            {
                "sensor": label,
                "pct_ipc": percent(result.relative_ipc(baseline)),
                "pct_emergency": percent(result.emergency_fraction),
                "max_temp_c": result.max_temperature,
            }
        )
    text = format_table(
        rows,
        columns=(
            ("sensor", "sensor model", None),
            ("pct_ipc", "%IPC", ".2f"),
            ("pct_emergency", "em%", ".4f"),
            ("max_temp_c", "max T (C)", ".3f"),
        ),
    )
    notes = (
        "A sensor that reads LOW (offset -0.2K) lets the true temperature\n"
        "drift above the intended setpoint -- eating the guard band is the\n"
        "dangerous direction; reading high merely costs performance.\n"
        "Zero-mean noise and coarse quantization are absorbed by feedback."
    )
    return ExperimentResult(
        experiment_id="A6",
        title="Sensor-imperfection robustness under the PID policy",
        rows=rows,
        text=text,
        notes=notes,
    )
