"""Ablation A3: interrupt-driven vs direct microarchitectural triggering.

Brooks & Martonosi's first design invokes the DTM policy through OS
interrupts, costing ~250 cycles per engage/disengage event; the paper
(like their second design) assumes a direct hardware signal.  This
ablation runs the non-CT toggling policies both ways and reports the
event counts and the performance delta.
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import DTMConfig
from repro.experiments.common import benchmark_budget
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.sim.parallel import WorkSpec, run_specs

DEFAULT_BENCHMARKS = ("gcc", "mesa", "art")


def run(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    policy: str = "toggle1",
    quick: bool = False,
) -> ExperimentResult:
    """Measure the interrupt overhead of the non-CT trigger mechanism."""
    specs = []
    for benchmark in benchmarks:
        budget = benchmark_budget(benchmark, quick)
        specs.append(WorkSpec(benchmark, "none", instructions=budget))
        specs.extend(
            WorkSpec(
                benchmark,
                policy,
                instructions=budget,
                dtm_config=replace(DTMConfig(), use_interrupts=use_interrupts),
            )
            for use_interrupts in (False, True)
        )
    results = iter(run_specs(specs))
    rows = []
    for benchmark in benchmarks:
        baseline = next(results)
        for use_interrupts in (False, True):
            result = next(results)
            rows.append(
                {
                    "benchmark": benchmark,
                    "signaling": "interrupt" if use_interrupts else "direct",
                    "pct_ipc": percent(result.relative_ipc(baseline)),
                    "events": result.interrupt_events,
                    "stall_cycles": result.interrupt_stall_cycles,
                    "pct_emergency": percent(result.emergency_fraction),
                }
            )
    text = format_table(
        rows,
        columns=(
            ("benchmark", "benchmark", None),
            ("signaling", "signaling", None),
            ("pct_ipc", "%IPC", ".2f"),
            ("events", "events", "d"),
            ("stall_cycles", "stall cycles", "d"),
            ("pct_emergency", "em%", ".3f"),
        ),
    )
    notes = (
        "Interrupt cost: 250 cycles per engage/disengage transition.  The\n"
        "overhead is small but unavoidable even for an ideal policy, which\n"
        "is why the paper assumes direct microarchitectural signaling."
    )
    return ExperimentResult(
        experiment_id="A3",
        title="Interrupt-driven vs direct DTM triggering",
        rows=rows,
        text=text,
        notes=notes,
    )
