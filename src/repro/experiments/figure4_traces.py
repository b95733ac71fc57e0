"""Section 7 trace figure: temperature and duty over time, per policy.

Runs one hot benchmark under no DTM, toggle1, M, and PID, and charts
the hottest-block temperature and the commanded fetch duty.  This is
the visual form of the paper's core result: the fixed policy bangs
between extremes below a conservative trigger, the CT policy rides
just below the emergency threshold.

The per-sample series come from the shared trace schema
(:class:`~repro.telemetry.trace.TraceRecord`): each policy runs with a
local :class:`~repro.telemetry.core.Telemetry` whose recorder keeps
every sample (one :func:`~repro.sim.parallel.run_specs` call per
policy, so the sweep settings and the result cache apply), and the
chart reads ``max_temp`` / ``duty`` straight off the retained records.
Pass a shared ``telemetry`` sink (e.g. from ``python -m
repro.experiments --trace-out``) and the per-run traces, events, and
metrics are folded into it.
"""

from __future__ import annotations

from repro.config import TelemetryConfig
from repro.experiments.reporting import ExperimentResult, ascii_chart, format_table
from repro.sim.parallel import WorkSpec, run_specs
from repro.telemetry import Telemetry, merge_telemetry


def run(
    benchmark: str = "gcc",
    policies: tuple[str, ...] = ("none", "toggle1", "m", "pid"),
    instructions: float = 1_000_000,
    telemetry=None,
) -> ExperimentResult:
    """Record per-sample traces for several policies on one benchmark."""
    temps: dict[str, list[float]] = {}
    duties: dict[str, list[float]] = {}
    rows = []
    for policy in policies:
        # A ring large enough never to wrap at this budget: the chart
        # needs every sample, not a decimated view.
        local = Telemetry(
            TelemetryConfig(trace_mode="ring", trace_capacity=65_536)
        )
        [result] = run_specs(
            [WorkSpec(benchmark, policy, instructions=instructions)],
            telemetry=local,
        )
        records = local.trace.records()
        assert records, "telemetry-enabled run must retain samples"
        temps[policy] = [record.max_temp for record in records]
        duties[policy] = [record.duty for record in records]
        rows.append(
            {
                "policy": policy,
                "cycles": result.cycles,
                "ipc": result.ipc,
                "pct_emergency": 100.0 * result.emergency_fraction,
                "max_temp_c": result.max_temperature,
                "mean_duty": sum(duties[policy]) / len(duties[policy]),
            }
        )
        merge_telemetry(telemetry, local)
    text = "\n".join(
        [
            format_table(
                rows,
                columns=(
                    ("policy", "policy", None),
                    ("cycles", "cycles", "d"),
                    ("ipc", "IPC", ".3f"),
                    ("pct_emergency", "% emergency", ".3f"),
                    ("max_temp_c", "max T (C)", ".3f"),
                    ("mean_duty", "mean duty", ".3f"),
                ),
            ),
            "",
            ascii_chart(temps, y_label=f"{benchmark}: hottest block temperature (C)"),
            "",
            ascii_chart(duties, height=8, y_label="fetch duty"),
        ]
    )
    return ExperimentResult(
        experiment_id="F4",
        title="Temperature and duty traces under different DTM policies",
        rows=rows,
        text=text,
        extras={"temps": temps, "duties": duties},
    )
