"""The fast engine: sample-granularity simulation for paper-scale sweeps.

One iteration covers one controller sampling interval (1000 cycles).
Per sample the engine:

1. looks up the workload phase at the current committed-instruction
   position and draws its jittered activity vector and demand IPC
   (seeded -- runs are bit-reproducible);
2. asks the :class:`~repro.dtm.manager.DTMManager` for the fetch duty,
   given the hottest block temperature at the sample boundary (exactly
   the paper's sensor/controller timing);
3. converts duty to throughput: the front end can supply at most
   ``duty * fetch_width * SUPPLY_EFFICIENCY`` instructions per cycle,
   so the sample commits ``min(demand, supply)`` IPC -- low-ILP phases
   absorb mild toggling for free, which is the paper's observation
   that "the program's ILP characteristics [can] permit the DTM
   mechanism to work well without penalizing performance";
4. scales structure activity by the achieved throughput ratio, turns
   it into per-block power (Wattch CC3), and advances the lumped RC
   model with the *exact* exponential update;
5. stages the sample's ``(start, steady, end)`` temperature rows, chip
   power and stall cycles for the
   :class:`~repro.sim.stage.SampleStage` post-pass, which computes the
   emergency/stress accounting with sub-sample accuracy from the
   closed-form trajectory and folds the power, energy and stall
   totals, once per chunk of :data:`~repro.sim.stage.STAGE_ROWS`
   samples.

:data:`SUPPLY_EFFICIENCY` is calibrated against the detailed core
(experiment C1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from time import perf_counter

import numpy as np

from repro.config import DTMConfig, MachineConfig, ThermalConfig
from repro.dtm.manager import DTMManager
from repro.dtm.policies import NoDTMPolicy
from repro.errors import SimulationError
from repro.power.wattch import PowerModel
from repro.sim.results import RunResult
from repro.sim.stage import LANE0, STAGE_ROWS, SampleStage
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
#: the fused sample kernel, the thermal update, the power model, the
#: workload phase draw -- cleanly invalidates every previously stored
#: entry instead of replaying stale numbers.  Bump the suffix whenever
#: a commit changes simulation output for an unchanged spec.
KERNEL_VERSION = "fast-kernel/v1"


def build_phase_tables(
    profile: BenchmarkProfile, names: tuple[str, ...]
) -> tuple[list[int], list[np.ndarray], list[float], list[float]]:
    """Prebuilt per-phase lookup tables for the fused sample kernel.

    Returns ``(phase_ends, phase_activity, phase_jitter, phase_ipc)``:
    cumulative instruction boundaries (so the phase at a
    committed-instruction position is one ``bisect``), read-only
    activity arrays, and scalar jitter/IPC per phase.  Shared by the
    single-lane kernel (:meth:`FastEngine._run`) and the lane-batched
    kernel (:class:`repro.sim.batch.BatchEngine`) so both look up the
    exact same prebuilt arrays -- part of the bit-identity argument.
    Activity must lie in [0, 1]: the lane kernel clips every row,
    jittered or not, and the clip must leave the others' values alone.
    """
    phase_ends: list[int] = []
    running = 0
    phase_activity: list[np.ndarray] = []
    phase_jitter: list[float] = []
    phase_ipc: list[float] = []
    for phase in profile.phases:
        running += phase.instructions
        phase_ends.append(running)
        base = np.array(phase.activity_vector(names), dtype=float)
        if not np.all((base >= 0.0) & (base <= 1.0)):
            raise SimulationError(
                f"{profile.name}: phase {phase.name!r} activity outside [0, 1]"
            )
        base.flags.writeable = False
        phase_activity.append(base)
        phase_jitter.append(phase.jitter)
        phase_ipc.append(phase.ipc)
    return phase_ends, phase_activity, phase_jitter, phase_ipc


class FastEngine:
    """Sample-granularity workload/power/thermal/DTM simulation.

    Power is Wattch CC3 clock gating, and the front end sustains
    :data:`SUPPLY_EFFICIENCY` of the toggled fetch bandwidth.
    """

    #: :data:`SUPPLY_EFFICIENCY`, for kernels that read it off the
    #: engine (the pinned :mod:`repro.sim.reference` kernel).
    supply_efficiency = SUPPLY_EFFICIENCY

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
        if self.telemetry.enabled and self.telemetry.profiler.enabled:
            self.thermal.attach_profiler(self.telemetry.profiler)
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
        """
        with self.telemetry.span("engine.run"):
            return self._run(instructions, max_cycles, warmup_instructions)

    def _start(self, instructions: float, max_cycles: int | None) -> tuple:
        """The per-run start-up both sample kernels share.

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
        on_sample = self.manager.on_sample
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
            if telemetry.profiler.enabled:
                def on_sample(
                    sensed,
                    _base=self.manager.on_sample,
                    _span=telemetry.profiler.span,
                ):
                    with _span("dtm.on_sample"):
                        return _base(sensed)
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

    def _run(
        self,
        instructions: float,
        max_cycles: int | None,
        warmup_instructions: float,
    ) -> RunResult:
        """The fused sample kernel.

        Optimized but **bit-identical** to the original (pinned as
        :class:`repro.sim.reference.ReferenceFastEngine` and asserted
        equal by ``tests/test_sim_reference.py``): every transformation
        below is a pure strength reduction --

        * per-phase activity vectors are prebuilt numpy arrays looked
          up by committed-instruction position (no per-sample tuple
          rebuild + ``np.array``);
        * thermal state and power peaks are read through cached
          read-only views (no defensive per-read copies);
        * one fused :meth:`~repro.thermal.lumped.LumpedThermalModel.
          advance_from` call returns ``(end, steady)`` and shares the
          steady-state solve the original computed twice;
        * threshold accounting is deferred: each measured sample only
          copies its ``(start, steady, end)`` rows into a
          :class:`~repro.sim.stage.SampleStage`, whose post-pass makes
          one broadcast :meth:`~repro.thermal.lumped.LumpedThermalModel.
          fractions_above` call per :data:`~repro.sim.stage.STAGE_ROWS`
          samples and accumulates, records history and emits telemetry
          in sample order; the chip power, energy and stall totals are
          folded there too, from the staged chip power and stall
          rows.
        """
        sample = self.dtm_config.sampling_interval
        sample_seconds = sample * self.machine.cycle_time
        max_cycles, on_sample, time_samples, rng = self._start(
            instructions, max_cycles
        )
        emergency_level = self.thermal_config.emergency_temperature
        stress_level = self.dtm_config.nonct_trigger
        thresholds = (emergency_level, stress_level)
        fetch_supply = self.machine.fetch_width * SUPPLY_EFFICIENCY

        # Telemetry is opt-in: ``recording`` is hoisted into a local so
        # the disabled path costs one boolean test per sample and the
        # simulation arithmetic is untouched (bit-identical results).
        telemetry = self.telemetry
        recording = telemetry.enabled
        sample_start = 0.0
        latency = math.nan
        names = self.floorplan.names
        block_count = len(names)

        # -- precomputed per-phase tables (replaces phase_at + the
        # per-sample activity_vector tuple rebuild).  ``phase_ends``
        # holds cumulative instruction boundaries, so the phase at a
        # committed-instruction position is one bisect; the prebuilt
        # activity arrays are marked read-only because the non-jittered
        # path hands them straight to the power computation.
        phase_total = self.profile.total_instructions
        phase_ends, phase_activity, phase_jitter, phase_ipc = (
            build_phase_tables(self.profile, names)
        )
        single_phase = len(phase_ends) == 1

        # -- hoisted hot-path handles (no per-sample attribute chains).
        thermal = self.thermal
        power_model = self.power_model
        peaks = power_model.peaks_view
        leakage = self.leakage
        monitored = self._monitored
        # CC3 power is inlined; the clip in block_powers is a
        # value-level no-op here because activity and ratio are both in
        # [0, 1] by construction, so the inlined product is identical.
        idle = power_model.idle_fraction
        active = 1.0 - idle
        unmonitored_peak = self.floorplan.unmonitored_peak_power

        committed = 0.0
        warmup_remaining = float(warmup_instructions)
        samples = 0
        total_committed = 0.0  # includes warmup; drives phase position
        # One shared budget for warmup + measurement (the original
        # engine gave warmup its own ``max_cycles`` allowance on top of
        # the main loop's, so a warmed-up run could simulate up to
        # twice the requested budget -- regression-tested).
        budget_remaining = max_cycles
        warmup_samples = 0

        # -- the deferred threshold pass: this lane's stage columns.
        stage = SampleStage(thermal, (self,), sample, sample_seconds, thresholds)
        rows_start = stage.start[:, 0]
        rows_steady = stage.steady[:, 0]
        rows_end = stage.end[:, 0]
        rows_chip = stage.chip[:, 0]
        rows_stalls = stage.stalls[:, 0]
        keep_rows = stage.keep_rows
        if keep_rows:
            rows_sensed = stage.sensed[:, 0]
            rows_committed = stage.committed[:, 0]
            rows_powers = None if stage.powers is None else stage.powers[:, 0]
            extras = stage.extras
        staged = 0

        try:
            while committed < instructions and budget_remaining > 0:
                if time_samples:
                    sample_start = perf_counter()
                if single_phase:
                    index = 0
                else:
                    position = int(total_committed) % phase_total
                    index = bisect_right(phase_ends, position)
                jitter = phase_jitter[index]
                if jitter:
                    activity = phase_activity[index] * (
                        1.0 + rng.normal(0.0, jitter, block_count)
                    )
                    np.clip(activity, 0.0, 1.0, out=activity)
                    demand_ipc = phase_ipc[index] * (
                        1.0 + rng.normal(0.0, 0.5 * jitter)
                    )
                else:
                    activity = phase_activity[index]
                    demand_ipc = phase_ipc[index]
                demand_ipc = max(0.05, demand_ipc)

                temps = thermal.temperatures_view
                if monitored is None:
                    sensed = float(temps.max())
                else:
                    sensed = float(temps[monitored].max())
                duty, stall = on_sample(sensed)
                supply_ipc = duty * fetch_supply
                effective_ipc = min(demand_ipc, supply_ipc)
                ratio = effective_ipc / demand_ipc

                utilization = activity * ratio
                powers = peaks * (idle + active * utilization)
                unmonitored = unmonitored_peak * (
                    idle + active * float(utilization.mean())
                )
                if leakage is not None:
                    powers = powers + leakage.power(peaks, temps)
                chip_power = float(powers.sum()) + unmonitored

                # One fused thermal call: steady state solved once and
                # shared between the exponential update and the
                # threshold crossing analysis.  ``temps`` stays a valid
                # pre-advance snapshot because advance_from rebinds the
                # model state.
                end, steady = thermal.advance_from(temps, powers, sample)

                # Guard rails: a non-finite power or temperature means
                # the loop has blown up (NaN sensor feedback, runaway
                # gains, ...).  Fail loudly with the state needed to
                # triage it instead of silently poisoning every
                # downstream metric.  The ``finally`` below flushes the
                # samples staged so far before the error propagates.
                if not np.isfinite(chip_power) or not np.all(np.isfinite(end)):
                    raise self._non_finite(end, chip_power, duty)

                sample_committed = effective_ipc * max(0, sample - stall)
                total_committed += sample_committed
                budget_remaining -= sample
                if warmup_remaining > 0:
                    # Warmup samples are excluded from every metric but
                    # still advance the samples-independent safety
                    # accounting, so a wedged warmup is diagnosable.
                    warmup_remaining -= sample_committed
                    warmup_samples += 1
                    if budget_remaining <= 0:
                        raise self._warmup_overrun(
                            max_cycles, warmup_samples, warmup_remaining, duty
                        )
                    continue

                committed += sample_committed
                samples += 1
                rows_start[staged] = temps
                rows_steady[staged] = steady
                rows_end[staged] = end
                rows_chip[staged] = chip_power
                rows_stalls[staged] = stall
                if keep_rows:
                    rows_sensed[staged] = sensed
                    rows_committed[staged] = sample_committed
                    if rows_powers is not None:
                        rows_powers[staged] = powers
                    if time_samples:
                        latency = perf_counter() - sample_start
                    extras.append((
                        (duty,),
                        (telemetry.take_control() if recording else None,),
                        latency,
                    ))
                staged += 1
                if staged == STAGE_ROWS:
                    staged = 0
                    stage.flush(STAGE_ROWS, LANE0)
        finally:
            stage.flush(staged, LANE0)

        return stage.result(
            0,
            self,
            samples=samples,
            instructions=committed,
            max_cycles=max_cycles,
        )
