"""Lane-batched simulation: one vectorized kernel, many sweeps at once.

The paper's evaluation is sweep-shaped: every table is a grid of
*independent* (benchmark x policy x seed) runs over one shared
floorplan and sampling configuration.  :class:`BatchEngine` exploits
that independence with a structure-of-arrays kernel: B lanes share one
stacked thermal state ``(B, n_blocks)``, and each sampling interval
advances every live lane through

* one stacked jitter/activity/demand evaluation,
* one vectorized supply/power evaluation,
* one stacked :meth:`~repro.thermal.lumped.LumpedThermalModel.
  advance_batch` exponential update,
* a few vector ops of stacked per-lane bookkeeping,
* one row copy per staged array into the shared
  :class:`~repro.sim.stage.SampleStage`, whose post-pass evaluates the
  emergency/stress fractions of every lane once per chunk of
  :data:`~repro.sim.stage.STAGE_ROWS` steps, as the scalar kernel's
  does.

Only the inherently scalar per-lane work -- the phase bisect, the
seeded RNG draws, and the :class:`~repro.dtm.manager.DTMManager`
control decision -- stays in a Python loop, so the per-sample numpy
dispatch overhead (the serial kernel's dominant cost at 7-block
problem sizes) is amortized over the whole batch.

Bit-identity, not approximate equivalence, is the contract: every
vectorized expression is the same elementwise arithmetic the serial
:class:`~repro.sim.fast.FastEngine` kernel evaluates, merely broadcast
over the leading lane axis, and the axis-1 reductions (``max``,
``sum``, ``mean``) run the same sequential inner loop numpy uses for
the serial kernel's 1-D arrays.  ``tests/test_sim_batch.py`` asserts
results, histories, traces, and metrics equal to per-lane serial runs,
including ragged lane lengths, injected faults, and failsafe
engagement.

Divergence between lanes is handled with masks, not synchronization:
a step in which a lane warms up or dies on a non-finite state updates
the bookkeeping through ``where=`` masks, and a lane that finishes or
dies leaves -- the stage flushes, the lane's outcome is assembled, and
the live columns are compacted -- while the remaining lanes keep
stepping.  Outcomes come back in spec order regardless of completion
order.

The planner (:func:`plan_batches`) groups *compatible* specs -- same
floorplan / machine / thermal / DTM configuration, differing
benchmark, policy, or seed -- into lanes; incompatible or multicore
specs fall back to singleton groups that run through the ordinary
serial path.  :mod:`repro.sim.parallel` composes these groups inside
each pool worker, so ``jobs`` (processes) multiplies with ``batch``
(lanes per kernel).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.sim.checkpoint import _canonical
from repro.sim.fast import SUPPLY_EFFICIENCY, FastEngine, build_phase_tables
from repro.sim.results import RunResult
from repro.sim.stage import STAGE_ROWS, SampleStage
from repro.sim.sweep import _validate_instructions, build_engine


def validate_batch(batch, *, allow_none: bool = False) -> None:
    """Reject batch widths that are bools or < 1.

    Mirrors the ``jobs`` validation in :mod:`repro.sim.parallel`
    (``bool`` is an ``int`` subclass, so ``batch=True`` would silently
    mean "one lane").
    """
    if batch is None and allow_none:
        return
    if isinstance(batch, bool) or not isinstance(batch, int) or batch < 1:
        expected = "a positive int" + (" or None" if allow_none else "")
        raise ConfigError(f"batch must be {expected}, got {batch!r}")


def batch_compatibility_key(spec) -> str | None:
    """Canonical grouping key for a spec, or ``None`` if unbatchable.

    Two specs may share a :class:`BatchEngine` iff they agree on the
    whole simulation *environment* -- floorplan, machine, thermal, and
    DTM configuration -- while benchmark, policy, seed, instruction
    budget, warmup, sensor, faults, and failsafe are free to differ per
    lane.
    Multicore specs (``core_benchmarks``) never batch.
    """
    if getattr(spec, "core_benchmarks", ()):
        return None
    return repr(
        _canonical(
            (spec.floorplan, spec.machine, spec.thermal_config,
             spec.dtm_config)
        )
    )


def plan_batches(specs, batch: int) -> list[list[int]]:
    """Group spec indices into lane batches of width <= ``batch``.

    Only *consecutive* compatible specs group together, so the results
    (and any checkpoint journal appends) stay in an order the serial
    executor could also have produced.  Specs whose key is ``None``
    (multicore) always form singleton groups.
    """
    validate_batch(batch)
    groups: list[list[int]] = []
    current: list[int] = []
    current_key: str | None = None
    for index, spec in enumerate(specs):
        key = batch_compatibility_key(spec)
        if (
            key is not None
            and key == current_key
            and len(current) < batch
        ):
            current.append(index)
            continue
        if current:
            groups.append(current)
        current = [index]
        current_key = key
    if current:
        groups.append(current)
    return groups


@dataclass
class LaneOutcome:
    """Terminal state of one lane: a result or the error that killed it."""

    result: RunResult | None = None
    error: BaseException | None = None


def run_spec_lanes(specs, telemetries=None) -> list[LaneOutcome]:
    """Run compatible specs as lanes of one :class:`BatchEngine`.

    ``telemetries`` is an optional per-lane sequence (parallel workers
    pass per-lane retain-everything sinks that the parent later folds
    in spec order).  Per-lane failures -- bad instruction budgets,
    unknown benchmarks, non-finite simulation states -- are captured in
    that lane's :class:`LaneOutcome`; the other lanes run to completion
    regardless.
    """
    specs = list(specs)
    if telemetries is None:
        telemetries = [None] * len(specs)
    outcomes = [LaneOutcome() for _ in specs]
    engines: list[FastEngine] = []
    lanes: list[int] = []
    budgets: list[float] = []
    for index, (spec, telemetry) in enumerate(zip(specs, telemetries)):
        try:
            budget = _validate_instructions(spec.instructions)
            engine = build_engine(spec, telemetry)
        except Exception as error:  # captured, not raised: lane-local
            outcomes[index].error = error
            continue
        engines.append(engine)
        lanes.append(index)
        budgets.append(budget)
    if engines:
        warmups = [specs[index].warmup_instructions for index in lanes]
        outcomes_run = BatchEngine(engines).run_outcomes(
            instructions=budgets, warmup_instructions=warmups
        )
        for index, outcome in zip(lanes, outcomes_run):
            outcomes[index] = outcome
    return outcomes


class _Lane:
    """Per-lane scalar state: what the stacked kernel cannot broadcast."""

    __slots__ = (
        "engine", "slot", "telemetry", "recording", "time_samples",
        "on_sample", "rng", "phase_total", "phase_ends", "phase_jitter",
        "single_phase", "first_row", "max_cycles", "error",
    )


#: Rows of the stacked per-lane bookkeeping (one column per live lane).
#: Rows that a step updates with one operation sit next to each other.
(
    _TOTAL, _COMMITTED,          # += instructions committed this sample
    _SPENT, _SAMPLES,            # += (sample cycles, 1)
    _INSTRUCTIONS, _MAX_CYCLES,  # where _COMMITTED / _SPENT stop a lane
    _POWER_SUM, _ENERGY,         # += chip power x (1, sample seconds)
    _POWER_MAX, _STALLS, _WARMUP, _WARMUP_SAMPLES,
) = range(12)


class BatchEngine:
    """Run B independent :class:`FastEngine` simulations in lock-step.

    ``engines`` are *unrun* engines (see
    :func:`~repro.sim.sweep.build_engine`); every engine must share the
    same floorplan, machine, thermal, and DTM configuration -- the
    compatibility :func:`plan_batches` guarantees for grouped specs --
    while benchmark profiles, policies, seeds, sensors, fault
    schedules, and failsafe guards are free to differ per lane.

    Results are bit-identical to running each engine's ``run()``
    serially.  Two deliberate observability exceptions, both shared
    with the PR-4 parallel executor's worker model: profiler *spans*
    are not reproduced lane-per-lane (the stacked thermal call cannot
    attribute its time to one lane), and per-sample ``latency_seconds``
    measures the batched step, not an isolated serial step.
    """

    def __init__(self, engines) -> None:
        engines = list(engines)
        if not engines:
            raise SimulationError("BatchEngine needs at least one lane")
        first = engines[0]
        key = repr(_canonical((
            first.floorplan, first.machine,
            first.thermal_config, first.dtm_config,
        )))
        for index, engine in enumerate(engines):
            if engine.leakage is not None:
                raise SimulationError(
                    f"lane {index}: leakage models cannot be lane-batched"
                )
            if engine._monitored is not None:
                raise SimulationError(
                    f"lane {index}: sensor placement (monitored_blocks) "
                    f"cannot be lane-batched"
                )
            if index and repr(_canonical((
                engine.floorplan, engine.machine,
                engine.thermal_config, engine.dtm_config,
            ))) != key:
                raise SimulationError(
                    f"lane {index}: incompatible simulation environment "
                    f"(floorplan/machine/thermal/DTM configuration must "
                    f"match lane 0)"
                )
        self.engines = engines

    def __len__(self) -> int:
        return len(self.engines)

    def run(
        self,
        instructions=2_000_000,
        max_cycles=None,
        warmup_instructions=0,
    ) -> list[RunResult]:
        """Run every lane; raise the earliest (spec-order) lane error.

        Equivalent to serially running each engine and stopping at the
        first failure: lanes *after* a failed lane did execute here,
        but their results are discarded, so the observable behaviour
        (the raised exception) matches the serial loop.
        """
        outcomes = self.run_outcomes(
            instructions, max_cycles, warmup_instructions
        )
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
        return [outcome.result for outcome in outcomes]

    def run_outcomes(
        self,
        instructions=2_000_000,
        max_cycles=None,
        warmup_instructions=0,
    ) -> list[LaneOutcome]:
        """Run every lane to completion-or-error; never raises per-lane.

        Each argument is a scalar (applied to every lane) or a
        per-lane sequence.  Returns one :class:`LaneOutcome` per lane,
        in lane order.
        """
        count = len(self.engines)
        instructions = _per_lane(instructions, count, "instructions")
        max_cycles = _per_lane(max_cycles, count, "max_cycles")
        warmup_instructions = _per_lane(
            warmup_instructions, count, "warmup_instructions"
        )
        return self._run(instructions, max_cycles, warmup_instructions)

    def _start_lanes(self, instructions, max_cycles, warmup, outcomes):
        """Per-lane scalar state, bookkeeping columns and phase table.

        The phase table stacks every lane's phases, lane after lane
        (the lane's phase ``i`` is row ``first_row + i``).  A row holds
        the jitter scale of each of the ``n + 1`` standard normals a
        jittered sample draws (``n`` activity draws, then one IPC draw
        at half the jitter), the ``n`` activities, and the IPC.
        """
        names = self.engines[0].floorplan.names
        block_count = len(names)
        lanes: list[_Lane] = []
        columns: list[tuple] = []
        phase_rows: list[np.ndarray] = []
        for slot, engine in enumerate(self.engines):
            budget = instructions[slot]
            try:
                start = engine._start(budget, max_cycles[slot])
            except SimulationError as error:
                outcomes[slot].error = error
                continue
            lane = _Lane()
            lane.max_cycles, lane.on_sample, lane.time_samples, lane.rng = start
            lane.engine = engine
            lane.slot = slot
            lane.error = None
            lane.telemetry = engine.telemetry
            lane.recording = engine.telemetry.enabled
            lane.phase_total = engine.profile.total_instructions
            (
                lane.phase_ends, phase_activity, lane.phase_jitter, phase_ipc,
            ) = build_phase_tables(engine.profile, names)
            lane.single_phase = len(lane.phase_ends) == 1
            lane.first_row = len(phase_rows)
            phase_rows.extend(
                np.concatenate((
                    [jitter] * block_count, [0.5 * jitter], activity, [ipc]
                ))
                for jitter, activity, ipc in zip(
                    lane.phase_jitter, phase_activity, phase_ipc
                )
            )
            lanes.append(lane)
            # One value per bookkeeping row, _TOTAL to _WARMUP_SAMPLES.
            columns.append((
                0.0, 0.0, 0, 0, budget, lane.max_cycles,
                0.0, 0.0, 0.0, 0, float(warmup[slot]), 0,
            ))
        return lanes, columns, np.array(phase_rows)

    def _run(self, instructions, max_cycles, warmup) -> list[LaneOutcome]:
        first = self.engines[0]
        sample = first.dtm_config.sampling_interval
        sample_seconds = sample * first.machine.cycle_time
        emergency_level = first.thermal_config.emergency_temperature
        stress_level = first.dtm_config.nonct_trigger
        thresholds = (emergency_level, stress_level)
        fetch_supply = first.machine.fetch_width * SUPPLY_EFFICIENCY
        thermal = first.thermal
        peaks = first.power_model.peaks_view
        idle = first.power_model.idle_fraction
        active_frac = 1.0 - idle
        unmonitored_peak = first.floorplan.unmonitored_peak_power
        block_count = len(first.floorplan.names)
        count = len(self.engines)

        outcomes = [LaneOutcome() for _ in range(count)]
        live, columns, phase_table = self._start_lanes(
            instructions, max_cycles, warmup, outcomes
        )
        if not live:
            return outcomes

        # Stacked per-lane bookkeeping: row ``_X`` of ``acc`` holds
        # field X of every live lane, so a sample updates all lanes with
        # a few contiguous vector ops.  Integer fields (cycles, counts,
        # stalls) are exact in float64.  Columns are compacted when
        # lanes leave, never per step.
        acc = np.array(columns, dtype=float).T.copy()
        clock_step = np.array([[sample], [1.0]])
        power_weights = np.array([[1.0], [sample_seconds]])
        slots = np.fromiter((lane.slot for lane in live), dtype=np.intp)
        state = np.array(
            [lane.engine.thermal.temperatures_view for lane in live]
        )
        warming = bool((acc[_WARMUP] > 0).any())
        timing = any(lane.time_samples for lane in live)

        # The deferred threshold pass: lanes' rows are staged per step
        # and flushed per chunk, and whenever lanes leave.
        stage = SampleStage(
            thermal, self.engines, sample, sample_seconds, thresholds
        )
        s_start, s_steady, s_end = stage.start, stage.steady, stage.end
        keep_rows = stage.keep_rows
        history_rows = stage.powers is not None

        # Per-step lane values from the scalar loop (index r holds live
        # lane r this sample).  Row r of ``noise`` takes live lane r's
        # jitter draws; a non-jittered lane leaves stale draws there.
        draws = block_count + 1
        noise = np.zeros((count, draws))
        noise_rows = list(noise)
        phase_rows: list[int] = [0] * count
        duties_py: list = [0.0] * count
        stalls_py: list = [0] * count
        controls: list = [None] * count

        step = 0
        progress, clock, power, reached, limits, power_max, stall_sum = (
            _row_views(acc)
        )
        try:
            while live:
                k = len(live)
                iter_start = perf_counter() if timing else 0.0
                start = state
                sensed = start.max(axis=1)
                sensed_py = sensed.tolist()
                positions = acc[_TOTAL].tolist()
                for r, lane in enumerate(live):
                    # Scalar per-lane work: phase lookup, seeded jitter
                    # draws (per-lane RNG stream, the serial kernel's
                    # draw order), and the DTM control decision.
                    if lane.single_phase:
                        index = 0
                    else:
                        index = bisect_right(
                            lane.phase_ends,
                            int(positions[r]) % lane.phase_total,
                        )
                    phase_rows[r] = lane.first_row + index
                    if lane.phase_jitter[index]:
                        lane.rng.standard_normal(out=noise_rows[r])
                    duty_r, stall_r = lane.on_sample(sensed_py[r])
                    duties_py[r] = duty_r
                    stalls_py[r] = stall_r
                    if lane.recording:
                        controls[r] = lane.telemetry.take_control()

                # The jittered phase draws, stacked.  ``normal(0, s)``
                # is ``0 + s * z`` on the same standard normals ``z``,
                # and the ``0 +`` cannot show after ``1.0 +``.  A
                # non-jittered row has scale 0, so its factor is
                # exactly 1.0 whatever stale (finite) draws its noise
                # row holds.  The stacked clip leaves those rows'
                # values alone because prebuilt phase activity lies in
                # [0, 1] (build_phase_tables checks it).  ``maximum``
                # is the serial ``max(0.05, demand)`` for the finite
                # demand a phase IPC in (0, 6] gives.
                phase = phase_table[phase_rows[:k]]
                factor = noise[:k] * phase[:, :draws]
                factor += 1.0
                activity = phase[:, draws:-1] * factor[:, :block_count]
                np.clip(activity, 0.0, 1.0, out=activity)
                demand = phase[:, -1] * factor[:, block_count]
                np.maximum(demand, 0.05, out=demand)
                duty, stalls = np.array(
                    (duties_py[:k], stalls_py[:k]), dtype=float
                )

                # One vectorized pass over all live lanes: identical
                # elementwise arithmetic to the serial kernel,
                # broadcast over the lane axis.  ``add.reduce / n`` is
                # what ``mean`` computes, minus its Python wrapper.
                supply = duty * fetch_supply
                effective = np.minimum(demand, supply)
                ratio = effective / demand
                utilization = activity * ratio[:, None]
                powers = peaks * (idle + active_frac * utilization)
                unmonitored = unmonitored_peak * (
                    idle
                    + active_frac
                    * (np.add.reduce(utilization, axis=1) / block_count)
                )
                chip_power = powers.sum(axis=1) + unmonitored
                end, steady = thermal.advance_batch(start, powers, sample)
                sample_committed = effective * np.maximum(0, sample - stalls)

                s_start[step, :k] = start
                s_steady[step, :k] = steady
                s_end[step, :k] = end
                if keep_rows:
                    stage.sensed[step, :k] = sensed
                    stage.chip[step, :k] = chip_power
                    stage.committed[step, :k] = sample_committed
                    if history_rows:
                        stage.powers[step, :k] = powers
                    stage.extras.append((
                        duties_py[:k],
                        controls[:k],
                        perf_counter() - iter_start if timing else math.nan,
                    ))

                # A sum is finite only if every term is: one cheap test
                # for the common step; the exact per-lane mask (and the
                # rare overflowing sum) takes the masked path.
                if warming or not math.isfinite(
                    chip_power.sum() + end.sum()
                ):
                    leaving = _settle_masked(
                        live, acc, stage, step, start, end,
                        sample_committed, chip_power, stalls, duties_py,
                        power_weights, sample,
                    )
                    warming = bool((acc[_WARMUP] > 0).any())
                else:
                    progress += sample_committed
                    clock += clock_step
                    power += chip_power * power_weights
                    np.maximum(power_max, chip_power, out=power_max)
                    stall_sum += stalls
                    leaving = reached >= limits
                    leaving = leaving.any(axis=0) if leaving.any() else None
                step += 1

                if leaving is not None and leaving.any():
                    # Flush before compacting: the staged columns are
                    # the live lanes of this chunk.
                    staged, step = step, 0
                    stage.flush(staged, slots)
                    for r in np.flatnonzero(leaving).tolist():
                        lane = live[r]
                        outcomes[lane.slot] = (
                            LaneOutcome(error=lane.error)
                            if lane.error is not None
                            else _finish(stage, lane, acc[:, r])
                        )
                    keep = ~leaving
                    live = [
                        lane for lane, kept in zip(live, keep.tolist())
                        if kept
                    ]
                    slots = slots[keep]
                    acc = acc[:, keep]
                    (
                        progress, clock, power, reached, limits,
                        power_max, stall_sum,
                    ) = _row_views(acc)
                    state = end[keep]
                    warming = warming and bool((acc[_WARMUP] > 0).any())
                    timing = any(lane.time_samples for lane in live)
                else:
                    state = end
                    if step == STAGE_ROWS:
                        step = 0
                        stage.flush(STAGE_ROWS, slots)
        finally:
            stage.flush(step, slots)
        return outcomes


def _row_views(acc: np.ndarray) -> tuple:
    """The views of ``acc`` the common step updates in place."""
    return (
        acc[_TOTAL:_COMMITTED + 1],
        acc[_SPENT:_SAMPLES + 1],
        acc[_POWER_SUM:_ENERGY + 1],
        acc[_COMMITTED:_SPENT + 1],
        acc[_INSTRUCTIONS:_MAX_CYCLES + 1],
        acc[_POWER_MAX],
        acc[_STALLS],
    )


def _settle_masked(
    live, acc, stage, step, start, end, sample_committed, chip_power,
    stalls, duties_py, power_weights, sample,
) -> np.ndarray:
    """Bookkeeping of a step with a warming or non-finite lane.

    A warming lane advances only its phase position, cycle budget and
    warmup counters; a non-finite lane advances nothing and gets the
    serial kernel's error.  Both are masked out of the threshold pass.
    Returns the mask of lanes that leave.
    """
    finite = np.isfinite(chip_power) & np.isfinite(end).all(axis=1)
    warm = acc[_WARMUP]
    warming = finite & (warm > 0)
    measuring = finite & ~warming
    np.add(acc[_TOTAL], sample_committed, out=acc[_TOTAL], where=finite)
    np.add(acc[_SPENT], sample, out=acc[_SPENT], where=finite)
    np.subtract(warm, sample_committed, out=warm, where=warming)
    np.add(
        acc[_WARMUP_SAMPLES], 1, out=acc[_WARMUP_SAMPLES], where=warming
    )
    for row, increment in (
        (_COMMITTED, sample_committed),
        (_SAMPLES, 1),
        (_STALLS, stalls),
    ):
        np.add(acc[row], increment, out=acc[row], where=measuring)
    power = acc[_POWER_SUM:_ENERGY + 1]
    np.add(power, chip_power * power_weights, out=power, where=measuring)
    np.maximum(
        acc[_POWER_MAX], chip_power, out=acc[_POWER_MAX], where=measuring
    )
    stuck = warming & (acc[_SPENT] >= acc[_MAX_CYCLES])
    for r in np.flatnonzero(~finite).tolist():
        # The lane leaves with the serial kernel's error; the others
        # keep stepping.
        live[r].error = live[r].engine._non_finite(
            end[r], float(chip_power[r]), duties_py[r]
        )
    for r in np.flatnonzero(stuck).tolist():
        lane = live[r]
        lane.error = lane.engine._warmup_overrun(
            lane.max_cycles,
            int(acc[_WARMUP_SAMPLES, r]),
            float(warm[r]),
            duties_py[r],
        )
    k = len(live)
    stage.measured[step, :k] = measuring
    stage.masked = True
    # The threshold pass still evaluates masked cells: give the
    # non-finite ones finite rows.
    bad = ~finite
    stage.steady[step, :k][bad] = start[bad]
    stage.end[step, :k][bad] = start[bad]
    reached = acc[_COMMITTED:_SPENT + 1] >= acc[_INSTRUCTIONS:_MAX_CYCLES + 1]
    return ~finite | stuck | (measuring & reached.any(axis=0))


def _finish(stage: SampleStage, lane: _Lane, column: np.ndarray) -> LaneOutcome:
    """One leaving lane's outcome from its bookkeeping column."""
    values = column.tolist()
    try:
        result = stage.result(
            lane.slot,
            lane.engine,
            samples=int(values[_SAMPLES]),
            instructions=values[_COMMITTED],
            power_sum=values[_POWER_SUM],
            power_max=values[_POWER_MAX],
            energy_joules=values[_ENERGY],
            interrupt_stalls=int(values[_STALLS]),
            max_cycles=lane.max_cycles,
        )
    except SimulationError as error:
        return LaneOutcome(error=error)
    return LaneOutcome(result=result)


def _per_lane(value, count: int, name: str) -> list:
    """Normalize a scalar-or-sequence argument to one value per lane."""
    if isinstance(value, (list, tuple, np.ndarray)):
        values = list(value)
        if len(values) != count:
            raise SimulationError(
                f"{name} sequence has {len(values)} entries "
                f"for {count} lanes"
            )
        return values
    return [value] * count
