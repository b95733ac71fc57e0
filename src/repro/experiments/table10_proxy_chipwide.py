"""Table 10: chip-wide boxcar power averaging vs the localized RC model.

Section 6's second comparison: a single chip-wide boxcar average of
power (trigger: 47 W) against the localized model's per-block
temperatures.  The paper's finding -- "almost all thermal-emergency
events detected with the localized model failed to be observed by the
chip-wide model" -- falls out because localized heating is much faster
(and much more selective) than anything chip-wide power can express.
"""

from __future__ import annotations

from repro.dtm.proxy import BoxcarPowerProxy, ProxyComparison
from repro.experiments.common import characterize_suite
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.workloads.profiles import BENCHMARKS

#: Chip-wide average-power trigger [W].  The paper used 47 W on its
#: Wattch power scale; rescaled to this library's calibration (peak
#: 130 W, idle ~50 W) the equivalent design point -- between the
#: "medium" (~74 W) and "extreme" (~85 W) suite averages -- is 78 W.
#: Pass ``trigger_power`` to explore other placements (47 W on our
#: scale is below idle and is permanently triggered).
CHIP_TRIGGER_POWER = 78.0

#: The paper's two boxcar window sizes [cycles].
WINDOWS = (10_000, 500_000)


def run(
    quick: bool = False, trigger_power: float = CHIP_TRIGGER_POWER
) -> ExperimentResult:
    """Regenerate Table 10 (chip-wide proxy disagreement rates)."""
    results = characterize_suite(quick=quick)
    rows = []
    for name in BENCHMARKS:
        history = results[name].history
        assert history is not None
        row: dict = {"benchmark": name}
        for window in WINDOWS:
            proxy = BoxcarPowerProxy(window, trigger_power)
            comparison = ProxyComparison()
            for s in range(history.samples):
                proxy.update(float(history.chip_power[s]), history.sample_cycles)
                comparison.record(
                    history.sample_cycles,
                    float(history.block_emergency[s].max()),
                    proxy.triggered,
                    float(history.block_stress[s].max()),
                )
            label = f"{window // 1000}k"
            row[f"missed_{label}"] = percent(comparison.missed_emergency_rate)
            row[f"false_{label}"] = percent(comparison.false_trigger_rate)
            row[f"missed_of_em_{label}"] = percent(
                comparison.missed_fraction_of_emergencies
            )
        rows.append(row)
    columns = [("benchmark", "benchmark", None)]
    for window in WINDOWS:
        label = f"{window // 1000}k"
        columns.append((f"missed_{label}", f"missed% ({label})", ".3f"))
        columns.append((f"false_{label}", f"false% ({label})", ".3f"))
        columns.append((f"missed_of_em_{label}", f"missed/em% ({label})", ".1f"))
    text = format_table(rows, columns=tuple(columns))
    return ExperimentResult(
        experiment_id="T10",
        title="Chip-wide boxcar power proxy vs localized RC model",
        rows=rows,
        text=text,
        notes=(
            f"Chip-wide trigger: boxcar average power > {trigger_power} W\n"
            "(the paper's 47 W, rescaled to this library's power calibration)."
        ),
    )
