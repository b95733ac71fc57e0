"""Sample-granularity N-core simulation with coordinated per-core DTM.

One iteration covers one controller sampling interval, exactly like the
single-core :class:`~repro.sim.fast.FastEngine`: the chip's cores run
as one *coupled lane group* of the sample kernel
(:class:`~repro.sim.batch.BatchEngine`), one lane per core, each core a
:class:`~repro.sim.fast.FastEngine` over the core floorplan.  Per step:

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
4. per-core throughput and Wattch CC3 block powers take the kernel's
   stacked power pass; the **thermal step is one stacked update** over
   all ``(n_cores, n_blocks)`` temperatures
   (:meth:`~repro.multicore.thermal.MulticoreThermalModel.
   advance_lanes`), including quasi-static core-to-core lateral
   coupling;
5. the kernel's :class:`~repro.sim.stage.SampleStage` accounts
   emergency/stress time per core, with the single-core closed-form
   sub-sample accuracy, and folds the chip totals.

Telemetry is opt-in and purely observational: per-core DTM managers run
without a telemetry hook (the chip emits one trace record per sample
with per-core max temperatures instead), while failsafe guards, fault
injectors, and the coordinator tag their events with a ``core`` field
on the shared ``repro.trace/v1`` event stream.  Disabled-telemetry runs
are bit-identical to enabled ones (asserted by tests).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.config import (
    DTMConfig,
    FailsafeConfig,
    MachineConfig,
    ThermalConfig,
)
from repro.dtm.failsafe import FailsafeGuard
from repro.dtm.policies import make_policy
from repro.errors import SimulationError
from repro.faults.schedule import FaultSchedule
from repro.faults.sensor import FaultySensor
from repro.multicore.coordinator import ThermalBudgetCoordinator
from repro.multicore.floorplan import MulticoreFloorplan
from repro.multicore.results import CoreResult, MulticoreRunResult
from repro.multicore.thermal import MulticoreThermalModel
from repro.sim.batch import BatchEngine
from repro.sim.fast import SUPPLY_EFFICIENCY, FastEngine
from repro.telemetry.core import ensure_telemetry
from repro.thermal.sensors import IdealSensor
from repro.workloads.profiles import BenchmarkProfile, get_profile


class MulticoreEngine:
    """N per-core DTM loops over one coupled thermal model.

    It is also the lane group the kernel runs its cores as, and
    supplies the group's hooks: :meth:`lane`, :attr:`arbitrate`,
    :meth:`check_finite` and :meth:`finish`.
    """

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
            self.policy_label = "+".join(dict.fromkeys(
                item if isinstance(item, str) else item.name
                for item in requested
            ))
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
        self._strategy = "" if coordinator is None else coordinator.strategy
        if coordinator is not None and self.telemetry.enabled:
            coordinator.attach_telemetry(self.telemetry)

        # -- per-core engines: one lane each of the chip's lane group.
        # Their managers run *without* a telemetry hook: the chip emits
        # one trace record per sample (per-core controller staging
        # would collide on the shared pending slot); guards and fault
        # injectors still tag their events with this core's index.
        fault_schedules = fault_schedules or {}
        self.cores: list[FastEngine] = []
        for core_index, profile in enumerate(self.profiles):
            schedule = fault_schedules.get(core_index)
            sensor = None if schedule is None else FaultySensor(
                IdealSensor(), schedule, telemetry=telemetry, core=core_index
            )
            guard = None
            if failsafe is not None:
                guard = FailsafeGuard(failsafe)
                guard.core = core_index
                if self.telemetry.enabled:
                    guard.attach_telemetry(self.telemetry)
            self.cores.append(
                FastEngine(
                    profile,
                    policy=self.policies[core_index],
                    floorplan=core_floorplan,
                    machine=self.machine,
                    thermal_config=self.thermal_config,
                    dtm_config=self.dtm_config,
                    seed=seed,
                    sensor=sensor,
                    failsafe=guard,
                )
            )
        self.managers = [core.manager for core in self.cores]

        self.thermal = MulticoreThermalModel(
            self.floorplan,
            heatsink_temperature=self.thermal_config.heatsink_temperature,
            cycle_time=self.machine.cycle_time,
        )
        #: The lane group's decision hook (see :meth:`_arbitrate`).
        self.arbitrate = self._arbitrate if coordinator is not None else None
        self._decisions: list[tuple] = []
        self._demoted_samples = [0] * n_cores

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
        The chip's cores run as one coupled lane group of the sample
        kernel, :class:`~repro.sim.batch.BatchEngine`.
        """
        if instructions <= 0:
            raise SimulationError("instructions must be positive")
        if max_cycles is None:
            slowest = min(
                max(0.1, profile.mean_ipc) for profile in self.profiles
            )
            max_cycles = int(40 * instructions / slowest)
        if max_cycles <= 0:
            raise SimulationError(
                "multicore run produced no samples",
                policy=self.policy_label,
                max_cycles=max_cycles,
            )
        telemetry = self.telemetry
        if telemetry.enabled:
            mix = "+".join(profile.name for profile in self.profiles)
            telemetry.set_context(mix, self.policy_label)
            telemetry.meta.update(
                benchmark=mix,
                policy=self.policy_label,
                n_cores=self.n_cores,
                core_names=list(self.floorplan.core_names),
                core_benchmarks=[p.name for p in self.profiles],
                coordinator=self._strategy,
                # Trace block_temps carry per-core max temperatures.
                block_names=list(self.floorplan.core_names),
                sample_cycles=self.dtm_config.sampling_interval,
                seed=self.seed,
                supply_efficiency=SUPPLY_EFFICIENCY,
            )
        # The lanes start from the chip's state.
        for core, temperatures in zip(self.cores, self.thermal.temperatures):
            core.thermal.set_temperatures(temperatures)
        self._demoted_samples = [0] * self.n_cores
        with telemetry.span("multicore.run"):
            [result] = BatchEngine(self.cores, group=self).run(
                instructions, max_cycles
            )
        return result

    # -- the lane group's hooks (called by the sample kernel) ---------------
    def lane(self, core_index: int) -> tuple:
        """Core ``core_index``'s ``(jitter stream, DTM sample hook)``.

        The stream is seeded afresh per run.  In a coordinated run the
        hook returns the decision :meth:`_arbitrate` granted the core
        this step, else it is the core's own DTM manager.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [self.profiles[core_index].seed, self.seed, core_index]
            )
        )
        if self.coordinator is None:
            return rng, self.managers[core_index].on_sample
        return rng, lambda sensed: self._decisions[core_index]

    def _arbitrate(self, sensed: list, step: int) -> None:
        """Decide one step of a coordinated run, for every core at once.

        Every core's DTM loop proposes a duty from its hottest block,
        then the coordinator grants duties against the chip budget and
        its demotions: a cut core's actuator takes the granted duty,
        quantized.  Counts the step for every demoted core.
        """
        decisions = [
            manager.on_sample(temperature)
            for manager, temperature in zip(self.managers, sensed)
        ]
        granted = self.coordinator.arbitrate(
            [duty for duty, _ in decisions], sensed, step
        )
        for core_index, (duty, stall) in enumerate(decisions):
            if granted[core_index] < duty - 1e-12:
                actuator = self.managers[core_index].actuator
                actuator.set_output(granted[core_index])
                decisions[core_index] = (actuator.duty, stall)
        self._decisions = decisions
        for core_index, demoted in enumerate(self.coordinator.demoted):
            if demoted:
                self._demoted_samples[core_index] += 1

    def check_finite(self, end, core_powers, duties: list, step: int) -> None:
        """Raise the run's error if the step left a non-finite state.

        The error names the first non-finite block, else the hottest
        core; the chip keeps the state the run failed on.
        """
        chip_power = float(np.add.reduce(core_powers))
        finite = np.isfinite(end)
        if finite.all() and math.isfinite(chip_power):
            return
        self.thermal.set_temperatures(end)
        if finite.all():
            core = int(end.max(axis=1).argmax())
            block = f"core{core}"
        else:
            core, index = np.unravel_index(int(np.argmin(finite)), end.shape)
            block = f"core{core}.{self.floorplan.core.names[index]}"
        raise SimulationError(
            "non-finite simulation state in multicore run",
            sample_index=step,
            block=block,
            benchmark=self.profiles[core].name,
            duty=float(duties[core]),
            chip_power=chip_power,
            policy=self.policy_label,
        )

    def finish(
        self, stage, steps: int, outcomes: list, end: np.ndarray
    ) -> MulticoreRunResult:
        """The run's result from its cores' lane outcomes.

        ``end`` is the chip's end state, which the chip keeps.
        """
        self.thermal.set_temperatures(end)
        cores = tuple(
            CoreResult(
                core=core_index,
                benchmark=run.benchmark,
                policy=run.policy,
                cycles=run.cycles,
                instructions=run.instructions,
                emergency_fraction=run.emergency_fraction,
                stress_fraction=run.stress_fraction,
                mean_temperature=float(stage.hottest_sum[core_index]) / steps,
                max_temperature=max(run.max_block_temperature.values()),
                mean_power=run.mean_chip_power,
                engaged_fraction=run.engaged_fraction,
                interrupt_stall_cycles=run.interrupt_stall_cycles,
                demoted_samples=self._demoted_samples[core_index],
                extra=run.extra,
            )
            for core_index, run in enumerate(
                outcome.result for outcome in outcomes
            )
        )
        coordinator = self.coordinator
        power_sum, energy_joules, emergency, stress = stage.group_sums.tolist()
        cycles = cores[0].cycles
        return MulticoreRunResult(
            policy=self.policy_label,
            coordinator=self._strategy,
            cycles=cycles,
            cores=cores,
            emergency_fraction=emergency / cycles,
            stress_fraction=stress / cycles,
            mean_chip_power=power_sum / steps,
            max_chip_power=stage.group_max,
            energy_joules=energy_joules,
            extra=coordinator.stats() if coordinator is not None else {},
        )
