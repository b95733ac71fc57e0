"""The detailed simulator: cycle-level core + power + thermal + DTM.

This is the paper's actual simulation flow (Section 5.2): each cycle
the pipeline model determines per-structure activity, the power model
converts it to per-structure power, and the thermal model integrates
Equation 5; every sampling interval the DTM manager reads the hottest
block and sets the fetch-toggling duty.  Interrupt stalls gate fetch
for their duration.

Pure-Python cycle simulation is slow, so this engine is used for
validation, microbenchmarks, and calibrating the fast engine -- not
for the full 18-benchmark sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.config import DTMConfig, MachineConfig, ThermalConfig
from repro.dtm.manager import DTMManager
from repro.dtm.policies import NoDTMPolicy
from repro.errors import SimulationError
from repro.power.wattch import PowerModel
from repro.sim.results import RunResult
from repro.thermal.floorplan import Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.uarch.pipeline import OutOfOrderCore
from repro.workloads.generator import instruction_stream
from repro.workloads.profiles import BenchmarkProfile


class DetailedSimulator:
    """Cycle-level coupled simulation of one benchmark under one policy."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        policy=None,
        machine: MachineConfig | None = None,
        floorplan: Floorplan | None = None,
        thermal_config: ThermalConfig | None = None,
        dtm_config: DTMConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.machine = machine if machine is not None else MachineConfig()
        self.floorplan = floorplan if floorplan is not None else Floorplan.default()
        self.thermal_config = (
            thermal_config if thermal_config is not None else ThermalConfig()
        )
        self.dtm_config = dtm_config if dtm_config is not None else DTMConfig()
        self.policy = policy if policy is not None else NoDTMPolicy()
        self.manager = DTMManager(self.policy, self.dtm_config)
        self.power_model = PowerModel(self.floorplan)
        self.thermal = LumpedThermalModel(
            self.floorplan,
            heatsink_temperature=self.thermal_config.heatsink_temperature,
            cycle_time=self.machine.cycle_time,
        )
        self._stall_until = 0
        self.core = OutOfOrderCore(
            self.machine,
            instruction_stream(profile, seed=seed),
            fetch_gate=self._fetch_allowed,
        )

    def _fetch_allowed(self, cycle: int) -> bool:
        if cycle < self._stall_until:
            return False
        return self.manager.actuator.allows(cycle)

    def run(
        self, max_cycles: int, max_instructions: int | None = None
    ) -> RunResult:
        """Run the coupled simulation for a cycle/instruction budget."""
        if max_cycles <= 0:
            raise SimulationError("max_cycles must be positive")
        names = self.floorplan.names
        block_count = len(names)
        sampling = self.dtm_config.sampling_interval
        emergency_level = self.thermal_config.emergency_temperature
        stress_level = self.dtm_config.nonct_trigger

        emergency_cycles = 0
        stress_cycles = 0
        block_emergency = np.zeros(block_count)
        block_stress = np.zeros(block_count)
        temp_sum = np.zeros(block_count)
        temp_max = np.full(block_count, -np.inf)
        power_sum = 0.0
        power_max = 0.0
        interrupt_stalls = 0
        unmonitored_peak = self.floorplan.unmonitored_peak_power

        for _ in range(max_cycles):
            cycle = self.core.cycle
            if cycle % sampling == 0:
                duty, stall = self.manager.on_sample(self.thermal.max_temperature)
                if stall:
                    self._stall_until = cycle + stall
                    interrupt_stalls += stall
            activity = self.core.step()
            utilization = self.power_model.utilization_from_counts(activity.counts)
            powers = self.power_model.block_powers(utilization)
            chip_power = float(powers.sum()) + self.power_model.unmonitored_power(
                float(utilization.mean())
            )
            temps = self.thermal.step_cycle(powers)

            hottest = float(temps.max())
            if hottest > emergency_level:
                emergency_cycles += 1
            if hottest > stress_level:
                stress_cycles += 1
            block_emergency += temps > emergency_level
            block_stress += temps > stress_level
            temp_sum += temps
            np.maximum(temp_max, temps, out=temp_max)
            power_sum += chip_power
            power_max = max(power_max, chip_power)

            if (
                max_instructions is not None
                and self.core.stats.committed >= max_instructions
            ):
                break

        cycles = self.core.stats.cycles
        stats = self.core.stats
        return RunResult(
            benchmark=self.profile.name,
            policy=self.policy.name,
            cycles=cycles,
            instructions=float(stats.committed),
            emergency_fraction=emergency_cycles / cycles,
            stress_fraction=stress_cycles / cycles,
            block_emergency_fraction={
                name: float(block_emergency[i]) / cycles
                for i, name in enumerate(names)
            },
            block_stress_fraction={
                name: float(block_stress[i]) / cycles
                for i, name in enumerate(names)
            },
            mean_block_temperature={
                name: float(temp_sum[i]) / cycles for i, name in enumerate(names)
            },
            max_block_temperature={
                name: float(temp_max[i]) for i, name in enumerate(names)
            },
            mean_chip_power=power_sum / cycles,
            max_chip_power=power_max,
            engaged_fraction=self.manager.engaged_fraction,
            interrupt_events=self.manager.interrupts.events,
            interrupt_stall_cycles=interrupt_stalls,
            extra={
                "mispredict_rate": stats.mispredict_rate,
                "dl1_miss_rate": self.core.memory.dl1.miss_rate,
                "il1_miss_rate": self.core.memory.il1.miss_rate,
                "fetch_gated_cycles": float(stats.fetch_gated_cycles),
                "wrong_path_cycles": float(stats.wrong_path_cycles),
            },
        )
