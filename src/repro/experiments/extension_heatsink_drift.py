"""Extension L1: heatsink drift over seconds (two-time-scale coupling).

The block model holds the heatsink at a constant 100 degC because its
time constant (~20 s) dwarfs the blocks' (~175 us).  But over seconds
of sustained load the heatsink itself drifts, and every block rides on
top of it: a workload that is safely "medium" against a 100 degC
heatsink becomes an emergency case when the heatsink creeps to 101.

This experiment exploits the time-scale separation the paper
identifies: within one heatsink epoch (0.25 s) the blocks are in
quasi-steady state, so the epoch's behaviour is computed from the
block model at the current heatsink temperature, the epoch's mean chip
power heats the package model, and the loop repeats.  It reports the
heatsink trajectory, the hottest block, and the PID duty over ~20
simulated seconds -- showing the controller throttling progressively
harder as its headroom erodes from below.
"""

from __future__ import annotations

import numpy as np

from repro.config import DTMConfig, MachineConfig
from repro.dtm.manager import DTMManager
from repro.dtm.policies import make_policy
from repro.experiments.reporting import (
    ExperimentResult,
    ascii_chart,
    format_table,
    percent,
)
from repro.power.wattch import PowerModel
from repro.sim.fast import SUPPLY_EFFICIENCY
from repro.thermal.floorplan import Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.thermal.package import PackageModel
from repro.workloads.profiles import get_profile


def _epoch(
    profile,
    manager,
    thermal,
    power_model,
    machine,
    dtm_config,
    rng,
    committed_start: float,
    samples: int,
) -> dict:
    """Run `samples` controller intervals at the current heatsink temp."""
    names = thermal.floorplan.names
    sample = dtm_config.sampling_interval
    supply = machine.fetch_width * SUPPLY_EFFICIENCY
    committed = committed_start
    power_sum = 0.0
    duty_sum = 0.0
    emergency = 0.0
    sample_seconds = sample * machine.cycle_time
    for _ in range(samples):
        phase = profile.phase_at(int(committed))
        activity = np.array(phase.activity_vector(names))
        if phase.jitter:
            activity = np.clip(
                activity * (1 + rng.normal(0, phase.jitter, len(names))), 0, 1
            )
        demand = max(0.05, phase.ipc)
        duty, _ = manager.on_sample(thermal.max_temperature)
        effective = min(demand, duty * supply)
        powers = power_model.block_powers(activity * (effective / demand))
        chip_power = float(powers.sum()) + power_model.unmonitored_power(
            float(activity.mean() * (effective / demand))
        )
        start = thermal.temperatures
        steady = thermal.steady_state(powers)
        thermal.advance(powers, sample)
        em = thermal.fraction_above(start, steady, sample_seconds, 102.0)
        emergency += float(em.max())
        committed += effective * sample
        power_sum += chip_power
        duty_sum += duty
    return {
        "committed": committed,
        "mean_power": power_sum / samples,
        "mean_duty": duty_sum / samples,
        "emergency_fraction": emergency / samples,
        "max_temp": thermal.max_temperature,
    }


def run(
    benchmark: str = "mesa",
    simulated_seconds: float = 25.0,
    epoch_seconds: float = 0.25,
    samples_per_epoch: int = 400,
    initial_heatsink: float = 99.0,
) -> ExperimentResult:
    """Couple the block model to a drifting heatsink over seconds."""
    profile = get_profile(benchmark)
    floorplan = Floorplan.default()
    machine = MachineConfig()
    dtm_config = DTMConfig()
    policy = make_policy("pid", floorplan, dtm_config)
    manager = DTMManager(policy, dtm_config)
    power_model = PowerModel(floorplan)
    thermal = LumpedThermalModel(
        floorplan, heatsink_temperature=initial_heatsink
    )
    # Package calibrated to the paper's operating premise: under
    # sustained load the heatsink sits around 100 degC (SIA-roadmap
    # conditions -- a hot enclosure and a high sink-to-air resistance),
    # so the equilibrium at this workload's ~79 W is ~100.8 degC and a
    # 99 degC start *drifts upward*.  A lighter heatsink (30 J/K,
    # tau ~ 20 s) keeps the transient visible within the horizon.
    package = PackageModel(
        r_die_case=0.05, r_heatsink=0.65, c_die=0.5, c_heatsink=30.0,
        ambient=49.5,
    )
    package.heatsink_temperature = initial_heatsink
    package.die_temperature = initial_heatsink

    rng = np.random.default_rng(np.random.SeedSequence([profile.seed, 13]))
    epochs = int(simulated_seconds / epoch_seconds)
    committed = 0.0
    sink_trace: list[float] = []
    temp_trace: list[float] = []
    duty_trace: list[float] = []
    rows = []
    for index in range(epochs):
        outcome = _epoch(
            profile, manager, thermal, power_model, machine, dtm_config,
            rng, committed, samples_per_epoch,
        )
        committed = outcome["committed"]
        # The epoch's mean power heats the package for the full epoch
        # duration (the blocks only ever see the last 400 samples, but
        # they are in quasi-steady state, so that is representative).
        package.step(outcome["mean_power"], epoch_seconds)
        thermal.heatsink_temperature = package.heatsink_temperature
        sink_trace.append(package.heatsink_temperature)
        temp_trace.append(outcome["max_temp"])
        duty_trace.append(outcome["mean_duty"])
        if index % max(1, epochs // 8) == 0 or index == epochs - 1:
            rows.append(
                {
                    "time_s": (index + 1) * epoch_seconds,
                    "heatsink_c": package.heatsink_temperature,
                    "hottest_block_c": outcome["max_temp"],
                    "mean_duty": outcome["mean_duty"],
                    "pct_emergency": percent(outcome["emergency_fraction"]),
                }
            )

    text = "\n".join(
        [
            format_table(
                rows,
                columns=(
                    ("time_s", "time (s)", ".2f"),
                    ("heatsink_c", "heatsink (C)", ".2f"),
                    ("hottest_block_c", "hottest block (C)", ".3f"),
                    ("mean_duty", "mean duty", ".3f"),
                    ("pct_emergency", "em%", ".3f"),
                ),
            ),
            "",
            ascii_chart(
                {"heatsink": sink_trace, "hottest block": temp_trace},
                y_label="temperature (C) over simulated seconds",
            ),
            "",
            ascii_chart({"mean duty": duty_trace}, height=6,
                        y_label="PID duty"),
        ]
    )
    notes = (
        "As the heatsink drifts up, the PID sacrifices duty to keep the\n"
        "hottest block pinned at the setpoint -- per-block DTM degrades\n"
        "gracefully, but headroom lost at the package must eventually be\n"
        "recovered by the package (fan speed, ambient), not the pipeline."
    )
    return ExperimentResult(
        experiment_id="L1",
        title="Heatsink drift over seconds under sustained load",
        rows=rows,
        text=text,
        notes=notes,
        extras={
            "sink_trace": sink_trace,
            "temp_trace": temp_trace,
            "duty_trace": duty_trace,
        },
    )
