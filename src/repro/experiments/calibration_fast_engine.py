"""Calibration C1: fast-engine duty response vs the detailed core.

The fast engine models toggling as a fetch-supply cap,
``supply = duty * fetch_width * efficiency``.  This experiment measures
the *actual* duty -> relative-IPC response of the cycle-level core
(with warm caches and predictor) and compares it against the fast
engine's prediction, reporting the per-duty error.  The shipped
``SUPPLY_EFFICIENCY`` was chosen from this measurement.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.dtm.mechanisms import FetchToggling
from repro.experiments.reporting import ExperimentResult, format_table
from repro.sim.fast import SUPPLY_EFFICIENCY
from repro.uarch.pipeline import OutOfOrderCore
from repro.workloads.generator import instruction_stream
from repro.workloads.profiles import get_profile

DEFAULT_DUTIES = (1.0, 5 / 7, 4 / 7, 3 / 7, 2 / 7, 1 / 7)


#: Cycles of warmup before measuring (cold caches and predictor tables
#: otherwise depress the full-duty IPC and hide the supply bound).
WARMUP_CYCLES = 150_000


def _detailed_ipc(
    benchmark: str,
    duty: float,
    cycles: int,
    seed: int = 1,
    warmup_cycles: int = WARMUP_CYCLES,
) -> float:
    """Warm-measure the detailed core's IPC at a fixed toggling duty."""
    toggling = FetchToggling()
    toggling.set_output(duty)
    machine = MachineConfig()
    core = OutOfOrderCore(
        machine,
        instruction_stream(get_profile(benchmark), seed=seed),
        fetch_gate=toggling.allows,
    )
    core.run(max_cycles=warmup_cycles)  # warmup: caches, predictor, window
    warm_cycles = core.stats.cycles
    warm_committed = core.stats.committed
    core.run(max_cycles=cycles)
    return (core.stats.committed - warm_committed) / (
        core.stats.cycles - warm_cycles
    )


def run(
    benchmark: str = "gcc",
    duties: tuple[float, ...] = DEFAULT_DUTIES,
    cycles_per_point: int = 100_000,
    quick: bool = False,
) -> ExperimentResult:
    """Measure and compare the duty -> throughput response."""
    warmup_cycles = WARMUP_CYCLES
    if quick:
        cycles_per_point = 40_000
        warmup_cycles = 60_000
        duties = (1.0, 3 / 7, 1 / 7)
    machine = MachineConfig()
    base_ipc = _detailed_ipc(
        benchmark, 1.0, cycles_per_point, warmup_cycles=warmup_cycles
    )
    rows = []
    for duty in duties:
        measured = _detailed_ipc(
            benchmark, duty, cycles_per_point, warmup_cycles=warmup_cycles
        )
        supply = duty * machine.fetch_width * SUPPLY_EFFICIENCY
        predicted = min(base_ipc, supply)
        rows.append(
            {
                "duty": duty,
                "detailed_ipc": measured,
                "detailed_relative": measured / base_ipc,
                "fast_relative": predicted / base_ipc,
                "error": predicted / base_ipc - measured / base_ipc,
            }
        )
    text = format_table(
        rows,
        columns=(
            ("duty", "duty", ".3f"),
            ("detailed_ipc", "detailed IPC", ".3f"),
            ("detailed_relative", "detailed rel", ".3f"),
            ("fast_relative", "fast rel", ".3f"),
            ("error", "error", "+.3f"),
        ),
    )
    worst = max(abs(row["error"]) for row in rows)
    notes = (
        f"Workload {benchmark}; supply efficiency "
        f"{SUPPLY_EFFICIENCY:.2f}; worst relative-IPC error "
        f"{worst:.3f}."
    )
    return ExperimentResult(
        experiment_id="C1",
        title="Fast-engine duty response calibration vs detailed core",
        rows=rows,
        text=text,
        notes=notes,
        extras={"worst_error": worst},
    )
