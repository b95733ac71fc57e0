"""Sample-granularity N-core simulation with coordinated per-core DTM.

One iteration covers one controller sampling interval, exactly like the
single-core :class:`~repro.sim.fast.FastEngine`, replicated per core
and stacked where it pays:

1. each core looks up *its own* workload phase (migration-free
   multiprogram mix: one :class:`~repro.workloads.profiles.
   BenchmarkProfile` per core, each with its own jitter stream seeded
   ``[profile.seed, run_seed, core_index]``);
2. each core's DTM loop (sensor -> optional failsafe guard -> policy ->
   quantized actuator) proposes a fetch duty from its own hottest
   block;
3. the optional :class:`~repro.multicore.coordinator.
   ThermalBudgetCoordinator` arbitrates the proposals against the
   chip-wide duty budget and any active demotions, overriding the
   per-core actuators where it cuts;
4. per-core throughput and Wattch CC3 block powers follow the
   single-core formulas; the **thermal step is one stacked numpy
   update** over all ``(n_cores, n_blocks)`` temperatures
   (:class:`~repro.multicore.thermal.MulticoreThermalModel`), including
   quasi-static core-to-core lateral coupling;
5. emergency/stress time is accounted per core with the same
   closed-form sub-sample accuracy as the single-core engine.

Telemetry is opt-in and purely observational: per-core DTM managers run
without a telemetry hook (the chip emits one trace record per sample
with per-core max temperatures instead), while failsafe guards, fault
injectors, and the coordinator tag their events with a ``core`` field
on the shared ``repro.trace/v1`` event stream.  Disabled-telemetry runs
are bit-identical to enabled ones (asserted by tests).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.config import (
    DTMConfig,
    FailsafeConfig,
    MachineConfig,
    ThermalConfig,
)
from repro.dtm.failsafe import FailsafeGuard
from repro.dtm.manager import DTMManager
from repro.dtm.policies import make_policy
from repro.errors import SimulationError
from repro.faults.schedule import FaultSchedule
from repro.faults.sensor import FaultySensor
from repro.multicore.coordinator import ThermalBudgetCoordinator
from repro.multicore.floorplan import MulticoreFloorplan
from repro.multicore.results import CoreResult, MulticoreRunResult
from repro.multicore.thermal import MulticoreThermalModel
from repro.power.wattch import PowerModel
from repro.sim.fast import SUPPLY_EFFICIENCY
from repro.telemetry.core import ensure_telemetry
from repro.thermal.sensors import IdealSensor
from repro.workloads.profiles import BenchmarkProfile, get_profile


class MulticoreEngine:
    """N per-core DTM loops over one stacked thermal model."""

    def __init__(
        self,
        profiles: Sequence[BenchmarkProfile | str],
        policy: str | Sequence = "pid",
        floorplan: MulticoreFloorplan | None = None,
        coordinator: ThermalBudgetCoordinator | str | None = None,
        machine: MachineConfig | None = None,
        thermal_config: ThermalConfig | None = None,
        dtm_config: DTMConfig | None = None,
        seed: int = 0,
        fault_schedules: Mapping[int, FaultSchedule] | None = None,
        failsafe: FailsafeConfig | None = None,
        telemetry=None,
    ) -> None:
        if not profiles:
            raise SimulationError("need at least one per-core profile")
        self.profiles = tuple(
            get_profile(item) if isinstance(item, str) else item
            for item in profiles
        )
        n_cores = len(self.profiles)
        self.floorplan = (
            floorplan
            if floorplan is not None
            else MulticoreFloorplan.tile(n_cores=n_cores)
        )
        if self.floorplan.n_cores != n_cores:
            raise SimulationError(
                f"floorplan has {self.floorplan.n_cores} cores but "
                f"{n_cores} profiles were given"
            )
        self.machine = machine if machine is not None else MachineConfig()
        self.thermal_config = (
            thermal_config if thermal_config is not None else ThermalConfig()
        )
        self.dtm_config = dtm_config if dtm_config is not None else DTMConfig()
        self.seed = seed
        self.telemetry = ensure_telemetry(telemetry)

        # -- per-core policies (shared name, per-core list, or objects).
        if isinstance(policy, str):
            requested = [policy] * n_cores
            self.policy_label = policy
        else:
            requested = list(policy)
            if len(requested) != n_cores:
                raise SimulationError(
                    f"got {len(requested)} policies for {n_cores} cores"
                )
            labels = []
            for item in requested:
                label = item if isinstance(item, str) else item.name
                if label not in labels:
                    labels.append(label)
            self.policy_label = "+".join(labels)
        core_floorplan = self.floorplan.core
        self.policies = [
            make_policy(item, core_floorplan, self.dtm_config)
            if isinstance(item, str)
            else item
            for item in requested
        ]

        # -- chip-level coordinator (strategy name or prebuilt).
        if isinstance(coordinator, str):
            coordinator = ThermalBudgetCoordinator(
                n_cores,
                strategy=coordinator,
                demote_temperature=self.thermal_config.emergency_temperature,
            )
        if coordinator is not None and coordinator.n_cores != n_cores:
            raise SimulationError(
                f"coordinator arbitrates {coordinator.n_cores} cores "
                f"but the chip has {n_cores}"
            )
        self.coordinator = coordinator
        if coordinator is not None and self.telemetry.enabled:
            coordinator.attach_telemetry(self.telemetry)

        # -- per-core DTM managers.  The managers run *without* a
        # telemetry hook: the chip emits one trace record per sample
        # (per-core controller staging would collide on the shared
        # pending slot); guards and fault injectors still tag their
        # events with this core's index.
        fault_schedules = fault_schedules or {}
        self.managers: list[DTMManager] = []
        self.guards: list[FailsafeGuard | None] = []
        for core_index in range(n_cores):
            sensor = None
            schedule = fault_schedules.get(core_index)
            if schedule is not None:
                sensor = FaultySensor(
                    IdealSensor(),
                    schedule,
                    telemetry=telemetry,
                    core=core_index,
                )
            guard = None
            if failsafe is not None:
                guard = FailsafeGuard(failsafe)
                guard.core = core_index
                if self.telemetry.enabled:
                    guard.attach_telemetry(self.telemetry)
            self.managers.append(
                DTMManager(
                    self.policies[core_index],
                    self.dtm_config,
                    sensor=sensor,
                    failsafe=guard,
                )
            )
            self.guards.append(guard)

        self.power_model = PowerModel(core_floorplan)
        self.thermal = MulticoreThermalModel(
            self.floorplan,
            heatsink_temperature=self.thermal_config.heatsink_temperature,
            cycle_time=self.machine.cycle_time,
        )

    @property
    def n_cores(self) -> int:
        """Number of cores on the chip."""
        return len(self.profiles)

    def run(
        self,
        instructions: float = 1_000_000,
        max_cycles: int | None = None,
    ) -> MulticoreRunResult:
        """Simulate until every core commits ``instructions``.

        All cores tick in lockstep (one shared sampling clock); cores
        that finish their budget early keep executing -- there is no
        migration and no idling, as in a throughput-mode multiprogram
        measurement -- so every reported metric covers the full run.
        """
        with self.telemetry.span("multicore.run"):
            return self._run(instructions, max_cycles)

    def _run(
        self, instructions: float, max_cycles: int | None
    ) -> MulticoreRunResult:
        if instructions <= 0:
            raise SimulationError("instructions must be positive")
        n_cores = self.n_cores
        sample = self.dtm_config.sampling_interval
        sample_seconds = sample * self.machine.cycle_time
        if max_cycles is None:
            slowest = min(
                max(0.1, profile.mean_ipc) for profile in self.profiles
            )
            max_cycles = int(40 * instructions / slowest)
        emergency_level = self.thermal_config.emergency_temperature
        stress_level = self.dtm_config.nonct_trigger
        fetch_supply = self.machine.fetch_width * SUPPLY_EFFICIENCY
        coordinator = self.coordinator

        telemetry = self.telemetry
        recording = telemetry.enabled
        if recording:
            mix = "+".join(profile.name for profile in self.profiles)
            telemetry.set_context(mix, self.policy_label)
            telemetry.meta.update(
                benchmark=mix,
                policy=self.policy_label,
                n_cores=n_cores,
                core_names=list(self.floorplan.core_names),
                core_benchmarks=[p.name for p in self.profiles],
                coordinator=(
                    coordinator.strategy if coordinator is not None else ""
                ),
                # Trace block_temps carry per-core max temperatures.
                block_names=list(self.floorplan.core_names),
                sample_cycles=sample,
                seed=self.seed,
                supply_efficiency=SUPPLY_EFFICIENCY,
            )

        rngs = [
            np.random.default_rng(
                np.random.SeedSequence([profile.seed, self.seed, core_index])
            )
            for core_index, profile in enumerate(self.profiles)
        ]
        names = self.floorplan.core.names
        block_count = len(names)

        committed = np.zeros(n_cores)
        total_committed = np.zeros(n_cores)
        cycles = 0
        samples = 0
        emergency_cycles = np.zeros(n_cores)
        stress_cycles = np.zeros(n_cores)
        chip_emergency_cycles = 0.0
        chip_stress_cycles = 0.0
        temp_sum = np.zeros(n_cores)
        temp_max = np.full(n_cores, -np.inf)
        core_power_sum = np.zeros(n_cores)
        power_sum = 0.0
        power_max = 0.0
        energy_joules = 0.0
        stall_cycles = np.zeros(n_cores, dtype=int)
        demoted_samples = np.zeros(n_cores, dtype=int)

        duties = np.empty(n_cores)
        demand = np.empty(n_cores)
        stalls = np.zeros(n_cores, dtype=int)
        activities = np.empty((n_cores, block_count))
        powers_stack = np.empty((n_cores, block_count))
        core_powers = np.empty(n_cores)
        sample_committed = np.empty(n_cores)

        while committed.min() < instructions and cycles < max_cycles:
            core_max = self.thermal.core_max_temperatures
            for core_index in range(n_cores):
                profile = self.profiles[core_index]
                phase = profile.phase_at(int(total_committed[core_index]))
                activity = np.array(
                    phase.activity_vector(names), dtype=float
                )
                if phase.jitter:
                    rng = rngs[core_index]
                    activity *= 1.0 + rng.normal(
                        0.0, phase.jitter, block_count
                    )
                    np.clip(activity, 0.0, 1.0, out=activity)
                    demand_ipc = phase.ipc * (
                        1.0 + rng.normal(0.0, 0.5 * phase.jitter)
                    )
                else:
                    demand_ipc = phase.ipc
                demand[core_index] = max(0.05, demand_ipc)
                activities[core_index] = activity
                duty, stall = self.managers[core_index].on_sample(
                    float(core_max[core_index])
                )
                duties[core_index] = duty
                stalls[core_index] = stall

            if coordinator is not None:
                granted = coordinator.arbitrate(duties, core_max, samples)
                for core_index in range(n_cores):
                    if granted[core_index] < duties[core_index] - 1e-12:
                        actuator = self.managers[core_index].actuator
                        actuator.set_output(granted[core_index])
                        duties[core_index] = actuator.duty
                demoted_samples += np.asarray(
                    coordinator.demoted, dtype=int
                )

            for core_index in range(n_cores):
                supply_ipc = duties[core_index] * fetch_supply
                effective_ipc = min(demand[core_index], supply_ipc)
                ratio = effective_ipc / demand[core_index]
                utilization = activities[core_index] * ratio
                powers = self.power_model.block_powers(utilization)
                powers_stack[core_index] = powers
                core_powers[core_index] = float(
                    powers.sum()
                ) + self.power_model.unmonitored_power(
                    float(utilization.mean())
                )
                sample_committed[core_index] = effective_ipc * max(
                    0, sample - stalls[core_index]
                )

            chip_power = float(core_powers.sum())
            start, steady, end = self.thermal.sample_update(
                powers_stack, sample
            )

            if not np.isfinite(chip_power) or not np.all(np.isfinite(end)):
                finite = np.isfinite(end)
                if not np.all(finite):
                    bad_core, bad_block = np.unravel_index(
                        int(np.argmin(finite)), end.shape
                    )
                    bad = f"core{bad_core}.{names[bad_block]}"
                else:
                    bad_core = self.thermal.hottest_core
                    bad = f"core{bad_core}"
                raise SimulationError(
                    "non-finite simulation state in multicore run",
                    sample_index=samples,
                    block=bad,
                    benchmark=self.profiles[int(bad_core)].name,
                    duty=float(duties[int(bad_core)]),
                    chip_power=chip_power,
                    policy=self.policy_label,
                )

            em_frac = self.thermal.fraction_above(
                start, steady, sample_seconds, emergency_level
            )
            st_frac = self.thermal.fraction_above(
                start, steady, sample_seconds, stress_level
            )
            em_core = em_frac.max(axis=1)
            st_core = st_frac.max(axis=1)

            total_committed += sample_committed
            committed += sample_committed
            cycles += sample
            samples += 1
            emergency_cycles += em_core * sample
            stress_cycles += st_core * sample
            chip_emergency_cycles += float(em_core.max()) * sample
            chip_stress_cycles += float(st_core.max()) * sample
            end_core_max = end.max(axis=1)
            temp_sum += end_core_max
            np.maximum(temp_max, end_core_max, out=temp_max)
            core_power_sum += core_powers
            power_sum += chip_power
            power_max = max(power_max, chip_power)
            energy_joules += chip_power * sample_seconds
            stall_cycles += stalls

            if recording:
                telemetry.record_sample(
                    index=samples - 1,
                    cycle=cycles,
                    sensed=float(core_max.max()),
                    max_temp=float(end_core_max.max()),
                    block_temps=end_core_max,
                    chip_power=chip_power,
                    ipc=float(sample_committed.sum()) / sample,
                    duty=float(duties.mean()),
                    emergency_fraction=float(em_core.max()),
                    stress_fraction=float(st_core.max()),
                )

        if samples == 0:
            raise SimulationError(
                "multicore run produced no samples",
                policy=self.policy_label,
                max_cycles=max_cycles,
            )

        cores = []
        for core_index in range(n_cores):
            extra: dict[str, float] = {}
            guard = self.guards[core_index]
            if guard is not None:
                extra["failsafe_engagements"] = float(guard.engagements)
                extra["failsafe_rejected_samples"] = float(
                    guard.rejected_samples
                )
                extra["failsafe_degraded_samples"] = float(
                    guard.degraded_samples
                )
                extra["failsafe_forced_samples"] = float(
                    guard.failsafe_samples
                )
            manager = self.managers[core_index]
            cores.append(
                CoreResult(
                    core=core_index,
                    benchmark=self.profiles[core_index].name,
                    policy=self.policies[core_index].name,
                    cycles=cycles,
                    instructions=float(committed[core_index]),
                    emergency_fraction=float(emergency_cycles[core_index])
                    / cycles,
                    stress_fraction=float(stress_cycles[core_index]) / cycles,
                    mean_temperature=float(temp_sum[core_index]) / samples,
                    max_temperature=float(temp_max[core_index]),
                    mean_power=float(core_power_sum[core_index]) / samples,
                    engaged_fraction=manager.engaged_fraction,
                    interrupt_stall_cycles=int(stall_cycles[core_index]),
                    demoted_samples=int(demoted_samples[core_index]),
                    extra=extra,
                )
            )

        chip_extra: dict[str, float] = {}
        if coordinator is not None:
            chip_extra.update(coordinator.stats())

        return MulticoreRunResult(
            policy=self.policy_label,
            coordinator=(
                coordinator.strategy if coordinator is not None else ""
            ),
            cycles=cycles,
            cores=tuple(cores),
            emergency_fraction=chip_emergency_cycles / cycles,
            stress_fraction=chip_stress_cycles / cycles,
            mean_chip_power=power_sum / samples,
            max_chip_power=power_max,
            energy_joules=energy_joules,
            extra=chip_extra,
        )
