"""Table 9: per-structure boxcar power averaging vs the RC thermal model.

Section 6: for each structure, a power-proxy trigger fires when the
boxcar average of that structure's power over the last W cycles exceeds
``P_trig = (T_trig - T_sink) / R``.  Running the proxy alongside the
reference RC model counts, per benchmark and window size (10 K and
500 K cycles):

* **missed emergencies** -- cycles the RC model puts a structure above
  the 102 degC emergency threshold while its proxy is not triggered;
* **false triggers** -- cycles a proxy is triggered while the
  structure's true temperature is below the 101 degC trigger level.
"""

from __future__ import annotations

from repro.config import DTMConfig, ThermalConfig
from repro.dtm.proxy import BoxcarPowerProxy, ProxyComparison
from repro.experiments.common import characterize_suite
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.thermal.floorplan import Floorplan
from repro.workloads.profiles import BENCHMARKS

#: The paper's two boxcar window sizes [cycles].
WINDOWS = (10_000, 500_000)


def run(quick: bool = False) -> ExperimentResult:
    """Regenerate Table 9 (per-structure proxy disagreement rates)."""
    thermal = ThermalConfig()
    dtm = DTMConfig()
    floorplan = Floorplan.default()
    results = characterize_suite(quick=quick)
    rows = []
    for name in BENCHMARKS:
        history = results[name].history
        assert history is not None
        row: dict = {"benchmark": name}
        for window in WINDOWS:
            comparison = ProxyComparison()
            for b, block in enumerate(floorplan.blocks):
                trigger_power = (
                    dtm.nonct_trigger - thermal.heatsink_temperature
                ) / block.resistance
                proxy = BoxcarPowerProxy(window, trigger_power)
                powers = history.block_powers[:, b]
                emergencies = history.block_emergency[:, b]
                stresses = history.block_stress[:, b]
                for s in range(history.samples):
                    proxy.update(float(powers[s]), history.sample_cycles)
                    comparison.record(
                        history.sample_cycles,
                        float(emergencies[s]),
                        proxy.triggered,
                        float(stresses[s]),
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
    notes = (
        "missed% = missed-emergency cycles / all structure-cycles;\n"
        "false% = false-trigger cycles / all structure-cycles;\n"
        "missed/em% = fraction of true emergency cycles the proxy missed."
    )
    return ExperimentResult(
        experiment_id="T9",
        title="Per-structure boxcar power proxy vs RC temperature model",
        rows=rows,
        text=text,
        notes=notes,
    )
