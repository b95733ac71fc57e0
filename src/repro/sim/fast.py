"""The fast engine: sample-granularity simulation for paper-scale sweeps.

One iteration covers one controller sampling interval (1000 cycles).
Per sample a run:

1. looks up the workload phase at the current committed-instruction
   position and draws its jittered activity vector and demand IPC
   (seeded -- runs are bit-reproducible);
2. asks the :class:`~repro.dtm.manager.DTMManager` for the fetch duty,
   given the hottest block temperature at the sample boundary (exactly
   the paper's sensor/controller timing; with ``monitored_blocks``,
   the hottest monitored block);
3. converts duty to throughput: the front end can supply at most
   ``duty * fetch_width * SUPPLY_EFFICIENCY`` instructions per cycle,
   so the sample commits ``min(demand, supply)`` IPC -- low-ILP phases
   absorb mild toggling for free, which is the paper's observation
   that "the program's ILP characteristics [can] permit the DTM
   mechanism to work well without penalizing performance";
4. scales structure activity by the achieved throughput ratio, turns
   it into per-block power (Wattch CC3, plus the optional
   temperature-dependent leakage), and advances the lumped RC model
   with the *exact* exponential update;
5. stages the sample's ``(start, steady, end)`` temperature rows, chip
   power and stall cycles for the
   :class:`~repro.sim.stage.SampleStage` post-pass, which computes the
   emergency/stress accounting with sub-sample accuracy from the
   closed-form trajectory and folds the power, energy and stall
   totals, once per chunk of :data:`~repro.sim.stage.STAGE_ROWS`
   samples.

:class:`FastEngine` holds one run's model -- profile, policy, DTM
manager, power and thermal models -- and the start-up and run errors
the kernel shares.  The loop itself is the lane kernel
(:class:`~repro.sim.batch.BatchEngine`): :meth:`FastEngine.run` is a
one-lane batch, so a lone run and a lane of a sweep group execute the
same code.

:data:`SUPPLY_EFFICIENCY` is calibrated against the detailed core
(experiment C1).
"""

from __future__ import annotations

import numpy as np

from repro.config import DTMConfig, MachineConfig, ThermalConfig
from repro.dtm.manager import DTMManager
from repro.dtm.policies import NoDTMPolicy
from repro.errors import SimulationError
from repro.power.wattch import PowerModel
from repro.sim.results import RunResult
from repro.telemetry.core import ensure_telemetry
from repro.thermal.floorplan import Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.workloads.profiles import BenchmarkProfile

#: Fraction of nominal fetch bandwidth the front end sustains through
#: toggling.  Calibrated against the detailed core (experiment C1):
#: gated fetch cycles interact with branch-driven fetch-block breaks,
#: so the sustained supply is ~0.8 * duty * fetch_width.
SUPPLY_EFFICIENCY = 0.80

#: Version tag of the sample kernel's numerics.  The cross-sweep result
#: cache (:mod:`repro.sim.cache`) folds this tag into every cache key,
#: so bumping it after any change that can alter computed results --
#: the sample kernel, the thermal update, the power model, the
#: workload phase draw -- cleanly invalidates every previously stored
#: entry instead of replaying stale numbers.  Bump the suffix whenever
#: a commit changes simulation output for an unchanged spec.
KERNEL_VERSION = "fast-kernel/v1"


class FastEngine:
    """Sample-granularity workload/power/thermal/DTM simulation.

    Power is Wattch CC3 clock gating, and the front end sustains
    :data:`SUPPLY_EFFICIENCY` of the toggled fetch bandwidth.
    """

    def __init__(
        self,
        profile: BenchmarkProfile,
        policy=None,
        floorplan: Floorplan | None = None,
        machine: MachineConfig | None = None,
        thermal_config: ThermalConfig | None = None,
        dtm_config: DTMConfig | None = None,
        seed: int = 0,
        sensor=None,
        record_history: bool = False,
        leakage=None,
        monitored_blocks: tuple[str, ...] | None = None,
        failsafe=None,
        actuator=None,
        telemetry=None,
    ) -> None:
        self.profile = profile
        self.floorplan = floorplan if floorplan is not None else Floorplan.default()
        self.machine = machine if machine is not None else MachineConfig()
        self.thermal_config = (
            thermal_config if thermal_config is not None else ThermalConfig()
        )
        self.dtm_config = dtm_config if dtm_config is not None else DTMConfig()
        self.policy = policy if policy is not None else NoDTMPolicy()
        # ``telemetry`` is a repro.telemetry.Telemetry (opt-in; None is
        # the zero-overhead null object asserted bit-identical by tests).
        self.telemetry = ensure_telemetry(telemetry)
        # ``failsafe`` is a FailsafeConfig or prebuilt FailsafeGuard;
        # ``actuator`` lets fault-injection wrappers replace the stock
        # FetchToggling (see repro.faults).
        self.manager = DTMManager(
            self.policy,
            self.dtm_config,
            sensor=sensor,
            failsafe=failsafe,
            actuator=actuator,
            telemetry=telemetry,
        )
        self.power_model = PowerModel(self.floorplan)
        self.thermal = LumpedThermalModel(
            self.floorplan,
            heatsink_temperature=self.thermal_config.heatsink_temperature,
            cycle_time=self.machine.cycle_time,
        )
        self.seed = seed
        self.record_history = record_history
        #: Optional :class:`~repro.power.leakage.LeakageModel`: adds
        #: temperature-dependent leakage (quasi-static per sample).
        self.leakage = leakage
        # Sensor placement (paper Section 4.2's future-work caveat:
        # "the number of sensors is likely to be limited, and they may
        # not be co-located with the most likely hot spots").  The DTM
        # loop only sees the temperatures of the monitored blocks; the
        # emergency accounting still uses the true physical field.
        if monitored_blocks is None:
            self._monitored = None
        else:
            if not monitored_blocks:
                raise SimulationError("need at least one monitored block")
            self._monitored = np.array(
                [self.floorplan.index(name) for name in monitored_blocks]
            )

    def run(
        self,
        instructions: float = 2_000_000,
        max_cycles: int | None = None,
        warmup_instructions: float = 0,
    ) -> RunResult:
        """Simulate until ``instructions`` commit (or ``max_cycles``).

        ``warmup_instructions`` are executed first with full dynamics
        (thermal state, DTM, phase position all advance) but excluded
        from every reported metric -- the analogue of the paper's
        skipping the first 2 billion instructions of each benchmark.

        The run is a one-lane :class:`~repro.sim.batch.BatchEngine`.
        The thermal model keeps the run's end state, so a second call
        continues from it.
        """
        # Function-level import: repro.sim.batch builds on this module.
        from repro.sim.batch import BatchEngine

        with self.telemetry.span("engine.run"):
            return BatchEngine([self]).run(
                instructions, max_cycles, warmup_instructions
            )[0]

    def _start(self, instructions: float, max_cycles: int | None) -> tuple:
        """The per-run start-up of one lane of the sample kernel.

        Returns ``(max_cycles, on_sample, time_samples, rng)``: the
        cycle budget, the DTM sample hook (inside a ``dtm.on_sample``
        span when profiling), whether to time each sample, and the
        seeded jitter stream.  With telemetry on, it also sets the
        telemetry context and run metadata.
        """
        if instructions <= 0:
            raise SimulationError("instructions must be positive")
        if max_cycles is None:
            # Generous budget: even duty-0 policies eventually release.
            max_cycles = int(40 * instructions / max(0.1, self.profile.mean_ipc))
        telemetry = self.telemetry
        on_sample = telemetry.profiler.wrap(
            "dtm.on_sample", self.manager.on_sample
        )
        time_samples = False
        if telemetry.enabled:
            telemetry.set_context(self.profile.name, self.policy.name)
            telemetry.meta.update(
                benchmark=self.profile.name,
                policy=self.policy.name,
                block_names=list(self.floorplan.names),
                sample_cycles=self.dtm_config.sampling_interval,
                seed=self.seed,
                supply_efficiency=SUPPLY_EFFICIENCY,
            )
            time_samples = telemetry.config.sample_latency
        rng = np.random.default_rng(
            np.random.SeedSequence([self.profile.seed, self.seed])
        )
        return max_cycles, on_sample, time_samples, rng

    def _non_finite(
        self, end: np.ndarray, chip_power: float, duty: float
    ) -> SimulationError:
        """The run error for a sample with a non-finite power or state.

        It names the first non-finite block of ``end``, else the
        hottest one, and carries the state needed to triage the run.
        """
        finite = np.isfinite(end)
        bad = np.argmin(finite) if not finite.all() else np.argmax(end)
        return SimulationError(
            f"non-finite simulation state in profile {self.profile.name!r}",
            sample_index=self.manager.samples - 1,
            block=self.floorplan.names[int(bad)],
            duty=duty,
            chip_power=chip_power,
            policy=self.policy.name,
        )

    def _warmup_overrun(
        self,
        max_cycles: int,
        warmup_samples: int,
        warmup_remaining: float,
        duty: float,
    ) -> SimulationError:
        """The run error for a warmup that used up its cycle budget."""
        return SimulationError(
            f"warmup of profile {self.profile.name!r} "
            f"exceeded its cycle budget of {max_cycles:,} cycles "
            f"({warmup_samples:,} samples consumed, "
            f"{warmup_remaining:,.0f} warmup instructions still outstanding)",
            sample_index=self.manager.samples - 1,
            warmup_cycles=warmup_samples * self.dtm_config.sampling_interval,
            warmup_budget=max_cycles,
            duty=duty,
            policy=self.policy.name,
        )
