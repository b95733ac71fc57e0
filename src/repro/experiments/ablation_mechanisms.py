"""Extension A5: comparing DTM *mechanisms* under the same PID policy.

The paper picks fetch toggling as its actuator after Brooks & Martonosi
found throttling, speculation control, and scaling inferior
(Section 2.1).  This experiment reproduces that comparison on the fast
model:

* **toggling** -- the standard engine path;
* **throttling** -- fetch width reduced but fetch happens every cycle,
  so per-cycle structures (branch predictor) keep their full activity:
  the mechanism "often cannot prevent certain hot spots";
* **dvfs** -- frequency/voltage scaling: power falls as f*V^2 and
  throughput as f, but every operating-point change stalls the pipeline
  for the resynchronization time, and the policy must be sticky.
"""

from __future__ import annotations

import numpy as np

from repro.config import DTMConfig, MachineConfig, ThermalConfig
from repro.dtm.manager import DTMManager
from repro.dtm.mechanisms import DVFSScaling
from repro.dtm.policies import make_policy
from repro.experiments.common import benchmark_budget
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.power.wattch import PowerModel
from repro.sim.parallel import WorkSpec, run_specs
from repro.thermal.floorplan import Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.workloads.profiles import get_profile


def _run_mechanism(
    benchmark: str, mechanism: str, instructions: float, seed: int = 0
) -> dict:
    """A FastEngine-style loop specialized per mechanism."""
    profile = get_profile(benchmark)
    floorplan = Floorplan.default()
    machine = MachineConfig()
    thermal_config = ThermalConfig()
    dtm_config = DTMConfig()
    policy = make_policy("pid", floorplan, dtm_config)
    manager = DTMManager(policy, dtm_config)
    power_model = PowerModel(floorplan)
    thermal = LumpedThermalModel(
        floorplan, heatsink_temperature=thermal_config.heatsink_temperature
    )
    dvfs = DVFSScaling()
    rng = np.random.default_rng(np.random.SeedSequence([profile.seed, seed]))
    names = floorplan.names
    bpred_index = floorplan.index("bpred")
    sample = dtm_config.sampling_interval
    sample_seconds = sample * machine.cycle_time

    committed = 0.0
    cycles = 0
    emergency = 0.0
    pending_stall = 0
    sample_index = 0
    #: DVFS dwell: the resynchronization stall forces scaling policies
    #: to be sticky (the paper's "policy delay" argument), so the
    #: operating point is only reconsidered at policy-delay granularity.
    dvfs_dwell_samples = max(1, dtm_config.policy_delay // sample)
    max_cycles = int(60 * instructions / max(0.1, profile.mean_ipc))
    while committed < instructions and cycles < max_cycles:
        phase = profile.phase_at(int(committed))
        activity = np.array(phase.activity_vector(names))
        if phase.jitter:
            activity = np.clip(
                activity * (1 + rng.normal(0, phase.jitter, len(names))), 0, 1
            )
        demand = max(0.05, phase.ipc)
        duty, _ = manager.on_sample(thermal.max_temperature)

        if mechanism == "toggling":
            supply = duty * machine.fetch_width * 0.8
            effective = min(demand, supply)
            utilization = activity * (effective / demand)
            power_scale = 1.0
        elif mechanism == "throttling":
            width = max(1, round(duty * machine.fetch_width))
            supply = width * 0.8
            effective = min(demand, supply)
            utilization = activity * (effective / demand)
            # Fetch still happens every cycle: the branch predictor and
            # I-cache keep their unthrottled activity.
            utilization[bpred_index] = activity[bpred_index]
            power_scale = 1.0
        elif mechanism == "dvfs":
            if sample_index % dvfs_dwell_samples == 0:
                _, stall = dvfs.set_output(duty)
                pending_stall += stall
            point = dvfs.current
            effective = demand * point.performance_scale
            utilization = activity
            power_scale = point.power_scale
        else:
            raise ValueError(f"unknown mechanism {mechanism!r}")

        stall_now = min(pending_stall, sample)
        pending_stall -= stall_now
        effective *= (sample - stall_now) / sample

        powers = power_model.block_powers(utilization) * power_scale
        start = thermal.temperatures
        steady = thermal.steady_state(powers)
        thermal.advance(powers, sample)
        em = thermal.fraction_above(
            start, steady, sample_seconds, thermal_config.emergency_temperature
        )
        emergency += float(em.max()) * sample
        committed += effective * sample
        cycles += sample
        sample_index += 1

    return {
        "ipc": committed / cycles,
        "emergency_fraction": emergency / cycles,
        "max_temp": thermal.max_temperature,
        "dvfs_transitions": dvfs.transitions if mechanism == "dvfs" else 0,
    }


def run(
    benchmark: str = "gcc",
    quick: bool = False,
) -> ExperimentResult:
    """Compare toggling, throttling, and DVFS under the PID policy."""
    budget = benchmark_budget(benchmark, quick)
    [baseline] = run_specs([WorkSpec(benchmark, "none", instructions=budget)])
    rows = []
    for mechanism in ("toggling", "throttling", "dvfs"):
        outcome = _run_mechanism(benchmark, mechanism, budget)
        rows.append(
            {
                "mechanism": mechanism,
                "pct_ipc": percent(outcome["ipc"] / baseline.ipc),
                "pct_emergency": percent(outcome["emergency_fraction"]),
                "max_temp_c": outcome["max_temp"],
                "transitions": outcome["dvfs_transitions"],
            }
        )
    text = format_table(
        rows,
        columns=(
            ("mechanism", "mechanism", None),
            ("pct_ipc", "%IPC", ".1f"),
            ("pct_emergency", "em%", ".3f"),
            ("max_temp_c", "max T (C)", ".3f"),
            ("transitions", "V/f switches", "d"),
        ),
    )
    notes = (
        "Throttling cannot cool the branch predictor (fetch still occurs\n"
        "every cycle); DVFS pays resynchronization stalls on every\n"
        "operating-point change -- both reasons the paper's vehicle is\n"
        "fetch toggling."
    )
    return ExperimentResult(
        experiment_id="A5",
        title="DTM mechanism comparison under the PID policy",
        rows=rows,
        text=text,
        notes=notes,
    )
