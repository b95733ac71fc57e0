"""The sample kernel: one vectorized loop for one run or many.

:class:`BatchEngine` is the engines' only sample loop.  A lone run
(:meth:`~repro.sim.fast.FastEngine.run`) is a one-lane batch; a sweep
group of compatible specs is a B-lane batch; a multicore chip
(:meth:`~repro.multicore.engine.MulticoreEngine.run`) is a *coupled
lane group*, one lane per core (see :class:`BatchEngine`).  The
paper's evaluation is sweep-shaped: every table is a grid of
*independent* (benchmark x policy x seed) runs over one shared
floorplan and sampling configuration.  B lanes share one stacked
thermal state ``(B, n_blocks)``, and each sampling interval advances
every live lane through

* one Python pass over the lanes for the inherently scalar work -- the
  phase bisect, the lane's next jitter draw, the
  :class:`~repro.dtm.manager.DTMManager` control decision -- and for
  every per-lane scalar: demand, supply, throughput ratio, committed
  instructions and the lane's run bookkeeping stay Python floats;
* one stacked utilization/power evaluation on the step's prebuilt
  activity rows, the unmonitored area as one more power column, plus
  each leaky lane's leakage row;
* one stacked :meth:`~repro.thermal.lumped.LumpedThermalModel.
  advance_batch` exponential update.

The stacked calls write straight into the shared
:class:`~repro.sim.stage.SampleStage` rows (``advance_batch`` its end
and steady state, the chip-power sum its chip column); only the start
state is copied in.  The stage owns every total no controller reads
(threshold fractions, temperatures, chip power, energy, stall cycles)
and folds them once per chunk of :data:`~repro.sim.stage.STAGE_ROWS`
steps.  A lane's jittered activity does not need the controller, so it
is built ahead too: at a chunk's first step and whenever its phase
changes, a lane draws the rest of the chunk's jitter in one
``standard_normal`` call and builds its activity rows for those steps
in one vectorized pass (:meth:`_Lane.build_activity`); the step reads
the rows and takes each sample's IPC draw from a Python list.

So a step costs a fixed number of stacked numpy calls plus the Python
work of its live lanes: the per-call numpy dispatch overhead (the
dominant cost at 7-block problem sizes) is amortized over the batch,
and a lane's own scalars never pay it.  The stacked pass's constant
operands are tiled to the full lane shape once per run, so those calls
take numpy's same-shape fast path instead of broadcasting a row or a
Python scalar.

A step with one live lane -- every step of a lone run, and the steps
a ragged group's last lane runs alone -- takes the stacked pass's
one-row form instead: the same arithmetic on Python floats
(:func:`_row_power`, then
:meth:`~repro.thermal.lumped.LumpedThermalModel.advance_row`), with
the lane's state a list, assigned into the same stage rows.  At these
sizes a numpy call costs about a microsecond of dispatch whatever its
length, so at one lane the stacked pass's calls cost more than its
arithmetic and amortize over nothing.  The form is chosen where the
views for k live lanes are rebuilt, which happens only when lanes
leave; a leaving lane flushes the stage, so a chunk has one form.

Bit-identity, not approximate equivalence, is the contract: every
vectorized expression is the same elementwise arithmetic a per-sample
loop over one lane evaluates, merely broadcast over the leading lane
axis, and the axis-1 reductions (``max``, ``sum``, ``mean``) run the
same sequential inner loop numpy uses for 1-D arrays.  The one-row
form keeps every operand order, and Python floats are IEEE doubles;
its sums follow numpy's reduction (:func:`_row_sum`), never the
built-in ``sum``, and its sensed maximum defers to numpy's wherever
``max()`` could differ (a NaN in the run's start state, or a maximum
of zero, whose sign numpy picks).  The tests hold each lane to the
pinned per-sample reference kernel (``tests/reference_kernel.py``),
or, where that frozen kernel keeps its old budget rule, to goldens of
the deleted scalar kernel: results, histories, traces and metrics,
including ragged lane lengths, warmup, cycle budgets, interrupt
stalls, injected faults, failsafe engagement, leakage and sensor
placement.

Divergence between lanes is handled with masks, not synchronization:
a step in which a lane warms up or dies on a non-finite state masks
that lane's cells out of the stage's totals, and a lane that finishes
or dies leaves -- the stage flushes, the lane's outcome is assembled,
its end state goes back to its engine's thermal model, and the live
columns are compacted -- while the remaining lanes keep stepping.
Every lane starts at step 0 and every step of a live lane costs one
sample of cycles, so a lane's cycles and samples follow from the step
count; the cycle budget check is one compare against the earliest live
lane's deadline.  Outcomes come back in spec order regardless of
completion order.

The planner (:func:`plan_batches`) groups *compatible* specs -- same
floorplan / machine / thermal / DTM configuration, differing
benchmark, policy, or seed -- into lanes; incompatible or multicore
specs fall back to singleton groups.  :mod:`repro.sim.parallel`
composes these groups inside each pool worker, so ``jobs``
(processes) multiplies with ``batch`` (lanes per kernel).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.sim.checkpoint import _canonical
from repro.sim.fast import SUPPLY_EFFICIENCY, FastEngine
from repro.sim.results import RunResult
from repro.sim.stage import STAGE_ROWS, SampleStage
from repro.sim.sweep import _validate_instructions, build_engine
from repro.workloads.profiles import BenchmarkProfile


def build_phase_tables(
    profile: BenchmarkProfile, names: tuple[str, ...]
) -> tuple[list[int], list[np.ndarray], list[float], list[float]]:
    """Prebuilt per-phase lookup tables for one lane.

    Returns ``(phase_ends, phase_activity, phase_jitter, phase_ipc)``:
    cumulative instruction boundaries (so the phase at a
    committed-instruction position is one ``bisect``), read-only
    activity arrays, and scalar jitter/IPC per phase.  Activity must
    lie in [0, 1]: the kernel clips every row, jittered or not, and the
    clip must leave the others' values alone.
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
    """Per-lane scalar state: what the stacked kernel cannot broadcast.

    The lane's run bookkeeping is Python floats and ints, updated by the
    per-lane loop: ``position`` (committed instructions, warmup
    included: the phase position), ``committed`` (measured
    instructions), ``warmup`` (warmup instructions outstanding) and
    ``warmup_samples``.
    ``deadline`` is the step count at which the cycle budget runs out.
    ``leakage`` and ``monitored`` are the engine's leakage model and
    sensed block indices, or ``None``.
    """

    __slots__ = (
        "engine", "slot", "telemetry", "recording", "time_samples",
        "on_sample", "rng", "phase_total", "phase_ends", "phase_activity",
        "phase_jitter", "phase_ipc", "single_phase", "built", "draws",
        "ipc_draws", "cursor", "max_cycles", "deadline", "instructions",
        "position", "committed", "warmup", "warmup_samples", "error",
        "end_state", "leakage", "monitored",
    )

    def build_activity(self, index: int, rows: np.ndarray) -> None:
        """Fill ``rows`` with phase ``index``'s activity, one row a step.

        ``rows`` are the lane's activity rows from this step to the end
        of the chunk, built as if the phase held that long; the kernel
        builds them again when the phase changes.  A jittered row is
        ``clip((z * jitter + 1) * activity, 0, 1)`` on the row's draws,
        the same elementwise arithmetic as a per-sample draw.  The
        lane's ``Generator`` feeds nothing but these draws, so one
        ``standard_normal`` block call yields the stream that one call
        per sample would: each row holds the ``n`` activity draws, then
        the IPC draw, kept as the Python list ``ipc_draws``.  Draws a
        build does not consume stay in the buffer, from ``cursor`` on,
        for the next build.  A non-jittered row is the prebuilt
        activity itself and takes no draws.
        """
        self.built = index
        base = self.phase_activity[index]
        jitter = self.phase_jitter[index]
        if not jitter:
            rows[...] = base
            return
        count, block_count = rows.shape
        cursor = self.cursor
        spare = len(self.ipc_draws) - cursor
        if spare < count:
            fresh = self.rng.standard_normal((count - spare, block_count + 1))
            self.draws = np.concatenate((self.draws[cursor:], fresh))
            self.ipc_draws = self.draws[:, block_count].tolist()
            self.cursor = cursor = 0
        np.multiply(
            self.draws[cursor:cursor + count, :block_count], jitter, out=rows
        )
        rows += 1.0
        rows *= base
        np.maximum(rows, 0.0, out=rows)
        np.minimum(rows, 1.0, out=rows)


class BatchEngine:
    """Run B independent :class:`FastEngine` simulations in lock-step.

    ``engines`` must share the same floorplan, machine, thermal, and
    DTM configuration -- the compatibility :func:`plan_batches`
    guarantees for grouped specs -- while benchmark profiles, policies,
    seeds, sensors, sensor placement, leakage, fault schedules, and
    failsafe guards are free to differ per lane.  Each lane starts from
    its engine's thermal state and leaves its end state there.

    Each lane's result is bit-identical to a one-lane run of its
    engine.  Two deliberate observability exceptions: profiler *spans*
    are not reproduced lane-per-lane (the stacked thermal call records
    its ``thermal.advance`` span in lane 0's profiler), and per-sample
    ``latency_seconds`` measures the batched step.

    A step with a single live lane runs on Python floats (see the
    module docstring): its thermal call is
    :meth:`~repro.thermal.lumped.LumpedThermalModel.advance_row`, in
    the same ``thermal.advance`` span, not ``advance_batch``.

    ``group``, when given, makes the lanes one *coupled lane group*,
    the cores of one chip: a
    :class:`~repro.multicore.engine.MulticoreEngine` passes itself and
    supplies the hooks.  The stacked pass (always taken) then steps
    ``group.thermal.advance_lanes``, a coordinated group's
    ``arbitrate`` makes every lane's decision before the per-lane
    pass, the lanes leave together (a non-finite state fails the whole
    run), and :meth:`run` returns a one-element list: the group's
    result.
    """

    def __init__(self, engines, group=None) -> None:
        engines = list(engines)
        if not engines:
            raise SimulationError("BatchEngine needs at least one lane")
        if len(engines) > 1:
            key = _environment(engines[0])
            for index, engine in enumerate(engines[1:], 1):
                if _environment(engine) != key:
                    raise SimulationError(
                        f"lane {index}: incompatible simulation environment "
                        f"(floorplan/machine/thermal/DTM configuration must "
                        f"match lane 0)"
                    )
        self.engines = engines
        self.group = group

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
        """Per-lane scalar state, phase tables and jitter draw buffer."""
        first = self.engines[0]
        names = first.floorplan.names
        sample = first.dtm_config.sampling_interval
        no_draws = np.empty((0, len(names) + 1))
        lanes: list[_Lane] = []
        for slot, engine in enumerate(self.engines):
            budget = instructions[slot]
            try:
                start = engine._start(budget, max_cycles[slot])
            except SimulationError as error:
                outcomes[slot].error = error
                continue
            lane = _Lane()
            (
                lane.max_cycles, lane.on_sample, lane.time_samples, lane.rng,
            ) = start
            # Every step of a live lane spends ``sample`` cycles, and
            # the lane stops once they reach ``max_cycles``.
            lane.deadline = -(-lane.max_cycles // sample)
            lane.engine = engine
            lane.slot = slot
            lane.error = None
            lane.end_state = None
            lane.telemetry = engine.telemetry
            lane.recording = engine.telemetry.enabled
            if self.group is not None:
                # A core's jitter stream and DTM decision are the
                # chip's, and its commits feed the chip's trace rows.
                lane.rng, lane.on_sample = self.group.lane(slot)
                lane.recording = self.group.telemetry.enabled
            lane.instructions = budget
            lane.position = 0.0
            lane.committed = 0.0
            lane.warmup = float(warmup[slot])
            lane.warmup_samples = 0
            lane.leakage = engine.leakage
            lane.monitored = engine._monitored
            lane.phase_total = engine.profile.total_instructions
            (
                lane.phase_ends, lane.phase_activity, lane.phase_jitter,
                lane.phase_ipc,
            ) = build_phase_tables(engine.profile, names)
            lane.single_phase = len(lane.phase_ends) == 1
            lane.built = -1
            lane.draws = no_draws
            lane.ipc_draws = []
            lane.cursor = 0
            lanes.append(lane)
        return lanes

    def _run(self, instructions, max_cycles, warmup) -> list[LaneOutcome]:
        first = self.engines[0]
        group = self.group
        sample = first.dtm_config.sampling_interval
        sample_seconds = sample * first.machine.cycle_time
        emergency_level = first.thermal_config.emergency_temperature
        stress_level = first.dtm_config.nonct_trigger
        thresholds = (emergency_level, stress_level)
        fetch_supply = first.machine.fetch_width * SUPPLY_EFFICIENCY
        thermal = first.thermal
        block_peaks = first.power_model.peaks_view
        idle = first.power_model.idle_fraction
        block_count = len(first.floorplan.names)
        count = len(self.engines)
        # The stacked pass's plant step and a decision hook.  A coupled
        # group has its own, and its lanes leave only all together.
        advance, arbitrate, quorum = (
            (thermal.advance_batch, None, 1) if group is None
            else (group.thermal.advance_lanes, group.arbitrate, count)
        )

        outcomes = [LaneOutcome() for _ in range(count)]
        live = self._start_lanes(instructions, max_cycles, warmup, outcomes)
        # The deferred threshold pass: lanes' rows are staged per step
        # and flushed per chunk, and whenever lanes leave.
        stage = SampleStage(
            thermal, self.engines, sample, sample_seconds, thresholds, group
        )
        # A lane whose budget allows no step measures nothing.
        for lane in [lane for lane in live if lane.deadline <= 0]:
            live.remove(lane)
            outcomes[lane.slot] = _finish(stage, lane, 0)
        if not live:
            return outcomes

        slots = np.fromiter((lane.slot for lane in live), dtype=np.intp)
        state = np.array(
            [lane.engine.thermal.temperatures_view for lane in live]
        )
        timing = any(lane.time_samples for lane in live)
        s_start, s_steady, s_end = stage.start, stage.steady, stage.end
        s_chip, s_stalls = stage.chip, stage.stalls
        keep_rows = stage.keep_rows
        history_rows = stage.powers is not None

        # Column r of ``activity`` holds live lane r's activity rows for
        # the chunk (_Lane.build_activity).  The power pass runs on
        # ``utilization``/``power`` rows of ``n + 1`` columns, the last
        # the unmonitored area's (its utilization is the blocks' mean),
        # against constants tiled to the full shape: dividing the block
        # columns by 1.0 and the sum column by ``n`` is one full-shape
        # call, and ``x / 1.0`` is ``x``.
        activity = np.empty((STAGE_ROWS, count, block_count))
        ratios = np.empty(count)
        utilization_rows = np.empty((count, block_count + 1))
        power_rows = np.empty((count, block_count + 1))
        constants = np.array((
            [1.0] * block_count + [float(block_count)],
            [1.0 - idle] * (block_count + 1),
            [idle] * (block_count + 1),
            np.append(block_peaks, first.floorplan.unmonitored_peak_power),
        ))
        tiles = np.repeat(constants[:, None], count, axis=1)
        # The same constants as Python floats, for the one-row step.
        row_constants = (
            constants[1, 0].item(),
            constants[2, 0].item(),
            constants[3, :block_count].tolist(),
            constants[0, block_count].item(),
            constants[3, block_count].item(),
        )
        duties: list = [0.0] * count
        controls: list = [None] * count

        steps = 0  # steps every live lane has taken: all start together
        step = 0  # the stage row of this step
        next_deadline = min(lane.deadline for lane in live)
        k = 0
        try:
            while live:
                if k != len(live):
                    # The step's form and its views for k live lanes,
                    # chosen only when lanes leave.  A leaving lane
                    # flushes the stage, so a chunk has a single k.
                    k = len(live)
                    leaky = [
                        (r, lane.leakage) for r, lane in enumerate(live)
                        if lane.leakage is not None
                    ]
                    placed = [
                        (r, lane.monitored) for r, lane in enumerate(live)
                        if lane.monitored is not None
                    ]
                    # A group's plant step is stacked, even for one core.
                    one_row = k == 1 and group is None
                    if one_row:
                        # One live lane: the state is a list of Python
                        # floats, and the step skips the stacked pass.
                        state = state[0].tolist()
                        leakage = live[0].leakage
                        sensors = (
                            None if live[0].monitored is None
                            else live[0].monitored.tolist()
                        )
                        # numpy's maximum propagates a NaN that max()
                        # may skip.  Every row a step ends on passes
                        # the finiteness test, so only the run's start
                        # state can hold one.
                        exact_max = any(temp != temp for temp in state)
                    else:
                        lane_ratios = ratios[:k, None]
                        utilization = utilization_rows[:k]
                        block_utilization = utilization[:, :block_count]
                        mean_utilization = utilization[:, block_count]
                        divisor, active_frac, idle_frac, peaks = tiles[:, :k]
                        power = power_rows[:k]
                        powers = power[:, :block_count]
                        unmonitored = power[:, block_count]
                iter_start = perf_counter() if timing else 0.0
                start = state
                if one_row:
                    s_start[step, 0] = start
                    sensed = (
                        max(start) if sensors is None
                        else max([start[i] for i in sensors])
                    )
                    if exact_max or not sensed:
                        # numpy's own maximum, for its NaN propagation
                        # and its sign of a zero maximum (+0.0 tied with
                        # -0.0), on the staged start row.
                        row = s_start[step, 0]
                        if sensors is not None:
                            row = row[sensors]
                        sensed = row.max().item()
                        exact_max = False
                    if keep_rows:
                        stage.sensed[step, 0] = sensed
                    sensed_py = [sensed]
                else:
                    sensed = np.maximum.reduce(
                        start, axis=1,
                        out=stage.sensed[step, :k] if keep_rows else None,
                    )
                    for r, monitored in placed:
                        sensed[r] = start[r, monitored].max()
                    sensed_py = sensed.tolist()
                    if arbitrate is not None:
                        # A coordinated group decides first: every
                        # core's DTM decision, then the coordinator's
                        # grant, which the lane's on_sample returns.
                        arbitrate(sensed_py, sensed, steps)
                stall_row = s_stalls[step]
                if keep_rows:
                    committed_row = stage.committed[step]
                warming: list[int] = []
                leaving: list[int] = []
                for r, lane in enumerate(live):
                    # The per-sample arithmetic, lane by lane, on Python
                    # floats: phase lookup, the lane's next jitter draw,
                    # the DTM decision, and the demand, supply and
                    # commit of this sample.
                    position = lane.position
                    if lane.single_phase:
                        index = 0
                    else:
                        index = bisect_right(
                            lane.phase_ends, int(position) % lane.phase_total
                        )
                    if index != lane.built:
                        lane.build_activity(index, activity[step:, r])
                    demand = lane.phase_ipc[index]
                    jitter = lane.phase_jitter[index]
                    if jitter:
                        # ``normal(0, s)`` is ``0 + s * z``, and the
                        # ``0 +`` cannot show after ``+ 1.0``.
                        z = lane.ipc_draws[lane.cursor]
                        lane.cursor += 1
                        demand *= z * (0.5 * jitter) + 1.0
                    if demand < 0.05:
                        demand = 0.05
                    duty, stall = lane.on_sample(sensed_py[r])
                    supply = duty * fetch_supply
                    effective = supply if supply < demand else demand
                    committed = effective * (
                        sample - stall if stall < sample else 0
                    )
                    ratios[r] = effective / demand
                    stall_row[r] = stall
                    duties[r] = duty
                    lane.position = position + committed
                    if lane.warmup > 0:
                        lane.warmup -= committed
                        lane.warmup_samples += 1
                        warming.append(r)
                    else:
                        lane.committed += committed
                        if lane.committed >= lane.instructions:
                            leaving.append(r)
                    if lane.recording:
                        controls[r] = lane.telemetry.take_control()
                        committed_row[r] = committed

                if one_row:
                    # The stacked pass's arithmetic on one row of Python
                    # floats, written into the stage's rows.
                    powers, chip_power = _row_power(
                        activity[step, 0].tolist(),
                        ratios.item(0),
                        row_constants,
                        None if leakage is None else leakage.power(
                            block_peaks, s_start[step, 0]
                        ).tolist(),
                    )
                    end, steady = thermal.advance_row(start, powers, sample)
                    s_chip[step, 0] = chip_power
                    s_steady[step, 0] = steady
                    s_end[step, 0] = end
                    # Tested as the stacked pass tests its sums below;
                    # the value is not kept.
                    finite = math.isfinite(sum(end, chip_power))
                else:
                    # The stacked pass: one lane's elementwise
                    # arithmetic, broadcast over the lane axis, written
                    # straight into the stage's rows.  ``add.reduce /
                    # n`` is what ``mean`` computes, minus its Python
                    # wrapper.
                    np.multiply(
                        activity[step, :k], lane_ratios,
                        out=block_utilization,
                    )
                    np.add.reduce(
                        block_utilization, axis=1, out=mean_utilization
                    )
                    np.divide(utilization, divisor, out=utilization)
                    np.multiply(utilization, active_frac, out=power)
                    np.add(power, idle_frac, out=power)
                    np.multiply(power, peaks, out=power)
                    for r, lane_leakage in leaky:
                        # Quasi-static leakage at the sample's start
                        # state.
                        powers[r] += lane_leakage.power(block_peaks, start[r])
                    chip_power = np.add.reduce(
                        powers, axis=1, out=s_chip[step, :k]
                    )
                    chip_power += unmonitored
                    end, steady = advance(
                        start, powers, sample,
                        out=(s_end[step, :k], s_steady[step, :k]),
                    )
                    s_start[step, :k] = start
                    # A sum is finite only if every term is: one cheap
                    # test for the common step, on Python floats; the
                    # exact per-lane mask (and the rare overflowing sum)
                    # takes the masked path.
                    finite = math.isfinite(
                        sum(chip_power.tolist()) + sum(end.ravel().tolist())
                    )
                if keep_rows:
                    if history_rows:
                        stage.powers[step, :k] = powers
                    stage.extras.append((
                        duties[:k],
                        controls[:k],
                        perf_counter() - iter_start if timing else math.nan,
                    ))

                if warming or not finite:
                    if group is not None:
                        # A non-finite core fails the whole chip.
                        group.check_finite(
                            s_end[step, :k], s_chip[step, :k], duties, steps
                        )
                    else:
                        leaving += _settle_masked(
                            live, stage, step, s_end[step, :k],
                            s_chip[step, :k], duties, warming,
                        )
                steps += 1
                step += 1
                if steps >= next_deadline:
                    for r, lane in enumerate(live):
                        if lane.deadline <= steps:
                            if r in warming and lane.error is None:
                                lane.error = lane.engine._warmup_overrun(
                                    lane.max_cycles,
                                    lane.warmup_samples,
                                    lane.warmup,
                                    duties[r],
                                )
                            leaving.append(r)

                if leaving and len(leaving) >= quorum:
                    # Flush before compacting: the staged columns are
                    # the live lanes of this chunk.
                    staged, step = step, 0
                    stage.flush(staged, slots)
                    # The step's end rows as staged (a list above at
                    # k = 1).
                    end = s_end[staged - 1, :k]
                    gone = set(leaving)
                    for r in gone:
                        lane = live[r]
                        lane.engine.thermal.set_temperatures(
                            end[r] if lane.end_state is None
                            else lane.end_state
                        )
                        outcomes[lane.slot] = (
                            LaneOutcome(error=lane.error)
                            if lane.error is not None
                            else _finish(stage, lane, steps)
                        )
                    if group is not None:
                        # The group left as one: the chip's result.
                        result = group.finish(stage, steps, outcomes, end)
                        return [LaneOutcome(result=result)]
                    kept = [r for r in range(k) if r not in gone]
                    live = [live[r] for r in kept]
                    slots = slots[kept]
                    state = end[kept]
                    if live:
                        next_deadline = min(lane.deadline for lane in live)
                        timing = any(lane.time_samples for lane in live)
                else:
                    state = end
                    if step == STAGE_ROWS:
                        step = 0
                        stage.flush(STAGE_ROWS, slots)
                if not step:
                    # A new chunk: every lane builds its activity rows.
                    for lane in live:
                        lane.built = -1
        finally:
            stage.flush(step, slots)
        return outcomes


def _settle_masked(
    live, stage, step, end, chip_power, duties, warming,
) -> list[int]:
    """Mask a step with a warming or non-finite lane out of the stage.

    A warming lane's step is excluded from every total; a non-finite
    lane's also gets the run's non-finite error and finite stand-in
    temperature rows for the threshold pass.  ``end`` and
    ``chip_power`` are the stage's own rows, so a non-finite lane's
    error diagnostics and end state (what its engine gets back) are
    taken before the stand-ins overwrite them.  Returns the non-finite
    rows, which leave.
    """
    k = len(live)
    finite = np.isfinite(chip_power) & np.logical_and.reduce(
        np.isfinite(end), axis=1
    )
    measured = finite.copy()
    measured[warming] = False
    stage.measured[step, :k] = measured
    stage.masked = True
    bad = np.flatnonzero(~finite).tolist()
    for r in bad:
        # The lane leaves with its non-finite error; the others
        # keep stepping.
        lane = live[r]
        lane.error = lane.engine._non_finite(
            end[r], float(chip_power[r]), duties[r]
        )
        lane.end_state = end[r].copy()
    # Finite stand-ins (the start state itself may not be finite).
    for rows in (stage.start, stage.steady, stage.end):
        rows[step, bad] = 0.0
    return bad


def _row_power(activity, ratio, constants, leakage) -> tuple[list, float]:
    """One lane's power row and chip power, on Python floats.

    The stacked pass's arithmetic for one row, operand for operand:
    utilization ``activity * ratio``; each block's power ``(u * (1 -
    idle) + idle) * peak``, plus ``leakage`` (a row, or ``None``) after
    it; the unmonitored area's the same on the blocks' mean
    utilization; the chip power the blocks' sum plus the unmonitored
    power.  ``constants`` are ``(1 - idle, idle, block peaks, block
    count, unmonitored peak)`` as Python floats.  Returns ``(powers,
    chip_power)``, bit-identical to the stacked pass's row.
    """
    active, idle, peaks, count, unmonitored_peak = constants
    utilization = [value * ratio for value in activity]
    powers = [(u * active + idle) * peak for u, peak in zip(utilization, peaks)]
    if leakage is not None:
        powers = [power + leak for power, leak in zip(powers, leakage)]
    unmonitored = (
        _row_sum(utilization) / count * active + idle
    ) * unmonitored_peak
    return powers, _row_sum(powers) + unmonitored


def _row_sum(values: list) -> float:
    """``np.add.reduce`` of one row, on Python floats.

    numpy adds the row's pairwise sum to +0.0.  Under eight terms the
    pairwise sum runs left to right, so the whole is a left-to-right
    sum from +0.0 (a row of -0.0 sums to +0.0).  The built-in ``sum``
    is no substitute: from Python 3.12 it compensates its rounding.
    """
    if len(values) < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    return 0.0 + _pairwise_sum(values)


def _pairwise_sum(values: list) -> float:
    """numpy's pairwise sum of eight or more float64 values.

    Up to 128 terms, eight interleaved running sums, combined as a
    tree, then the terms past the last multiple of eight left to right;
    beyond that, the halves (split at a multiple of eight), each summed
    alike.
    """
    count = len(values)
    if count > 128:
        half = count // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    sums = values[:8]
    stop = count - count % 8
    for first in range(8, stop, 8):
        for lane in range(8):
            sums[lane] += values[first + lane]
    total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + (
        (sums[4] + sums[5]) + (sums[6] + sums[7])
    )
    for value in values[stop:]:
        total += value
    return total


def _finish(stage: SampleStage, lane: _Lane, steps: int) -> LaneOutcome:
    """One leaving lane's outcome after ``steps`` steps."""
    try:
        result = stage.result(
            lane.slot,
            lane.engine,
            samples=steps - lane.warmup_samples,
            instructions=lane.committed,
            max_cycles=lane.max_cycles,
        )
    except SimulationError as error:
        return LaneOutcome(error=error)
    return LaneOutcome(result=result)


def _environment(engine) -> str:
    """The canonical simulation environment lanes must share."""
    return repr(_canonical((
        engine.floorplan, engine.machine,
        engine.thermal_config, engine.dtm_config,
    )))


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
