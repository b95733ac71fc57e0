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
* one power pass on the step's prebuilt activity rows (the
  unmonitored area as one more power column, plus each leaky lane's
  leakage row) and one exact exponential update of every lane, the
  expression of :meth:`~repro.thermal.lumped.LumpedThermalModel.
  advance_batch`.

The step's form (:class:`_Form`) owns its sensing, its power pass and
its plant call, and writes straight into the shared
:class:`~repro.sim.stage.SampleStage` rows; no state is copied in.
Independent lanes take the compiled form (:class:`_Compiled`) at every
k: one C call (:mod:`repro.sim.lanestep`) runs the power pass and the
update for all live lanes, tests each lane's values for finiteness and
takes each end row's sensed maximum, which the next step reads.  Where
the host cannot build or load that step, independent lanes take the
stacked numpy form (:class:`_Stacked`) instead, with the same bits.  A
coupled group takes the stacked form with its group's plant and hooks
(:class:`_Group`).  The form is chosen where the views for k live
lanes are rebuilt, which happens only when lanes leave; a leaving lane
flushes the stage, so a chunk has one form.

The stage owns every total no controller reads (threshold fractions,
temperatures, chip power, energy, stall cycles) and folds them once per
chunk of :data:`~repro.sim.stage.STAGE_ROWS` steps.  A lane's jittered
activity does not need the controller, so it is built ahead too: at a
chunk's first step and whenever its phase changes, a lane draws the
rest of the chunk's jitter in one ``standard_normal`` call and builds
its activity rows for those steps in one vectorized pass
(:meth:`_Lane.build_activity`); the step reads the rows and takes each
sample's IPC draw from a Python list.

So the arithmetic of a step costs one C call, and what remains is the
per-lane Python pass, which batching does not amortize.  The stacked
form costs a fixed number of numpy calls a step, each about a
microsecond of dispatch at 7-block sizes whatever its length; its
constant operands are tiled to the full lane shape once per form, so
those calls take numpy's same-shape fast path.

Bit-identity, not approximate equivalence, is the contract: every
vectorized expression is the same elementwise arithmetic a per-sample
loop over one lane evaluates, merely broadcast over the leading lane
axis, and the axis-1 reductions (``max``, ``sum``, ``mean``) run the
same sequential inner loop numpy uses for 1-D arrays.  The compiled
step keeps every operand order and numpy's reduction order, takes the
decay and the leakage rows from numpy, and defers the sensed maximum
to numpy wherever a compare could differ (a NaN, a maximum of zero,
whose sign numpy picks, and a form's first step).  The tests hold each
lane to the pinned per-sample reference kernel
(``tests/reference_kernel.py``), or, where that frozen kernel keeps
its old budget rule, to goldens of the deleted scalar kernel: results,
histories, traces and metrics, including ragged lane lengths, warmup,
cycle budgets, interrupt stalls, injected faults, failsafe engagement,
leakage and sensor placement.

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
from repro.sim import lanestep
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
    """

    __slots__ = (
        "engine", "slot", "telemetry", "staged", "time_samples",
        "on_sample", "rng", "phase_total", "phase_ends", "phase_activity",
        "phase_jitter", "phase_ipc", "single_phase", "built", "draws",
        "ipc_draws", "cursor", "max_cycles", "deadline", "instructions",
        "position", "committed", "warmup", "warmup_samples", "error",
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
    are not reproduced lane-per-lane (each step's plant call is one
    ``thermal.advance`` span in lane 0's profiler), and per-sample
    ``latency_seconds`` measures the batched step.

    ``group``, when given, makes the lanes one *coupled lane group*,
    the cores of one chip: a
    :class:`~repro.multicore.engine.MulticoreEngine` passes itself and
    supplies the hooks of the group's step form (:class:`_Group`).  The
    stacked pass (always taken) then steps
    ``group.thermal.advance_lanes``, a coordinated group's
    ``arbitrate`` makes every lane's decision before the per-lane
    pass, the lanes leave together (a non-finite state fails the whole
    run), and :meth:`run` returns a one-element list: the group's
    result.  A chip's cores record no profiler spans.
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

    def _start_lanes(self, instructions, max_cycles, warmup, outcomes, stage):
        """Per-lane scalar state, phase tables and jitter draw buffer;
        a lane whose budget allows no step gets its outcome here."""
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
            lane.telemetry = engine.telemetry
            # The lane's staged rows, where it records or keeps history
            # (or, in a group, the chip's trace rows read its commits).
            lane.staged = stage.staged[slot]
            if self.group is not None:
                # A core's jitter stream and DTM decision are the chip's.
                lane.rng, lane.on_sample = self.group.lane(slot)
            lane.instructions = budget
            lane.position = 0.0
            lane.committed = 0.0
            lane.warmup = float(warmup[slot])
            lane.warmup_samples = 0
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
            if lane.deadline > 0:
                lanes.append(lane)
            else:
                outcomes[slot] = _finish(stage, lane, 0)
        return lanes

    def _run(self, instructions, max_cycles, warmup) -> list[LaneOutcome]:
        first = self.engines[0]
        sample = first.dtm_config.sampling_interval
        fetch_supply = first.machine.fetch_width * SUPPLY_EFFICIENCY
        count = len(self.engines)
        outcomes = [LaneOutcome() for _ in range(count)]
        # The deferred threshold pass: lanes' rows are staged per step
        # and flushed per chunk, and whenever lanes leave.
        stage = SampleStage(self.engines, self.group)
        live = self._start_lanes(
            instructions, max_cycles, warmup, outcomes, stage
        )
        if not live:
            return outcomes

        # The lanes' start states are the first chunk's row 0.
        stage.rows[0, :len(live)] = [
            lane.engine.thermal.temperatures_view for lane in live
        ]
        stalls, keep_rows = stage.stalls, stage.keep_rows
        # Column r of ``activity`` holds live lane r's activity rows for
        # the chunk (_Lane.build_activity), and ``ratios[r]`` its
        # throughput ratio of the step.
        activity = np.empty((STAGE_ROWS, count, len(first.floorplan.names)))
        ratios = np.empty(count)
        duties: list = [0.0] * count
        latency = stage.latency
        # Independent lanes take the compiled step where the host can
        # build it, else the stacked numpy pass; a coupled group steps
        # stacked, with its own plant and hooks.
        if self.group is not None:
            step_form = _Group
        else:
            step_form = _Stacked if lanestep.kernel() is None else _Compiled

        steps = 0  # steps every live lane has taken: all start together
        step = 0  # the stage row of this step
        k = 0
        try:
            while live:
                if k != len(live):
                    # The step's form and views for k live lanes, chosen
                    # only when lanes leave.  A leaving lane flushes the
                    # stage, so a chunk has one form.
                    k = len(live)
                    slots = np.fromiter(
                        (lane.slot for lane in live), dtype=np.intp
                    )
                    next_deadline = min(lane.deadline for lane in live)
                    timing = any(lane.time_samples for lane in live)
                    form = step_form(self, live, stage, activity, ratios)
                    sense, advance = form.sense, form.advance
                    quorum = form.quorum
                iter_start = perf_counter() if timing else 0.0
                sensed = sense(step, steps)
                stall_row = stalls[step]
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
                    duty, stall = lane.on_sample(sensed[r])
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
                    staged = lane.staged
                    if staged is not None:
                        staged.append((
                            sensed[r], duty, committed,
                            lane.telemetry.take_control(),
                        ))

                finite = advance(step)
                if keep_rows:
                    latency.append(
                        perf_counter() - iter_start if timing else math.nan
                    )
                if warming or not finite:
                    leaving += form.settle(live, step, steps, duties, warming)
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
                    end = stage.end[staged - 1, :k]
                    gone = set(leaving)
                    for r in gone:
                        lane = live[r]
                        lane.engine.thermal.set_temperatures(end[r])
                        outcomes[lane.slot] = _finish(stage, lane, steps)
                    kept = [r for r in range(k) if r not in gone]
                    live = [live[r] for r in kept]
                    # The kept lanes' end rows start the next chunk.
                    stage.rows[0, :len(kept)] = end[kept]
                elif step == STAGE_ROWS:
                    step = 0
                    stage.flush(STAGE_ROWS, slots)
                if not step:
                    # A new chunk: every lane builds its activity rows.
                    for lane in live:
                        lane.built = -1
        finally:
            stage.flush(step, slots)
        return form.finish(outcomes, steps, end)


class _Form:
    """What every step form shares.

    :meth:`sense` returns the step's sensed maxima; :meth:`advance`
    runs the power pass and plant call into the stage's rows and tells
    whether the step is finite; :meth:`settle` masks a step with a
    warming or non-finite lane; :meth:`finish` makes the run's outcomes
    once every lane has left.  A form takes its plant call when it is
    built (a numpy form looks its plant up on the thermal model, so a
    patched method is the one called) and wraps it in lane 0's
    ``thermal.advance`` span, if its profiler is on.
    """

    #: Leaving lanes that flush the chunk and leave: any one.
    quorum = 1

    def __init__(self, kernel, live, stage) -> None:
        first = kernel.engines[0]
        self.k = len(live)
        self.stage = stage
        self.sample = first.dtm_config.sampling_interval
        self.peaks = first.power_model.peaks_view
        engines = [lane.engine for lane in live]
        self.leaky = [
            (r, engine.leakage) for r, engine in enumerate(engines)
            if engine.leakage is not None
        ]
        self.placed = [
            (r, engine._monitored) for r, engine in enumerate(engines)
            if engine._monitored is not None
        ]
        self.starts = stage.rows[:, :self.k]

    def maxima(self, step, out=None) -> np.ndarray:
        """numpy's maximum of each lane's sensed blocks at the start of
        ``step``, into ``out`` if given."""
        start = self.starts[step]
        sensed = np.maximum.reduce(start, axis=1, out=out)
        for r, monitored in self.placed:
            sensed[r] = start[r, monitored].max()
        return sensed

    def settle(self, live, step, steps, duties, warming) -> list[int]:
        """Mask the step out of the stage; return the non-finite rows,
        which leave with the run's error.

        A non-finite lane's start and steady rows get finite stand-ins
        for the threshold pass; its end row stays, for its engine.
        """
        stage = self.stage
        end = stage.end[step, :self.k]
        chip_power = stage.chip[step, :self.k]
        finite = np.isfinite(chip_power) & np.logical_and.reduce(
            np.isfinite(end), axis=1
        )
        stage.measured[step, :self.k] = finite
        stage.measured[step, warming] = False
        stage.masked = True
        bad = np.flatnonzero(~finite).tolist()
        for r in bad:
            # The lane leaves with its non-finite error; the others
            # keep stepping.
            lane = live[r]
            lane.error = lane.engine._non_finite(
                end[r], float(chip_power[r]), duties[r]
            )
        if bad:
            # The start row is the previous step's end row, which the
            # flush still counts: only its non-finite cells get a
            # stand-in, and only a run's first row can hold one.
            start = stage.rows[step, bad]
            stage.rows[step, bad] = np.where(np.isfinite(start), start, 0.0)
            stage.steady[step, bad] = 0.0
        return bad

    def finish(self, outcomes, steps, end) -> list[LaneOutcome]:
        """The run's outcomes once every lane has left, the last after
        ``steps`` steps on the ``end`` rows: the lanes' own."""
        return outcomes


class _Stacked(_Form):
    """The stacked numpy form: a coupled group's (:class:`_Group`), and
    independent lanes' at every k where the compiled step is
    unavailable.  The power pass runs in place on ``n + 1``-column rows
    (the last the unmonitored area's) against constants tiled to the
    full shape, so dividing the block columns by 1.0 (exact) and the
    sum column by ``n`` is one full-shape call.  A step indexes the
    stage's rows, viewed at the k live lanes once per form, by its row.
    """

    #: The lanes' plant: the thermal model's method of that name.
    plant = "advance_batch"

    def __init__(self, kernel, live, stage, activity, ratios) -> None:
        super().__init__(kernel, live, stage)
        k = self.k
        n = len(self.peaks)
        first = kernel.engines[0]
        model = first.thermal if kernel.group is None else kernel.group.thermal
        self.advance_lanes = first.telemetry.profiler.wrap(
            "thermal.advance", getattr(model, self.plant)
        )
        idle = first.power_model.idle_fraction
        constants = np.array((
            [1.0] * n + [float(n)],
            [1.0 - idle] * (n + 1),
            [idle] * (n + 1),
            np.append(self.peaks, first.floorplan.unmonitored_peak_power),
        ))
        self.tiles = tuple(np.repeat(constants[:, None], k, axis=1))
        self.lane_ratios = ratios[:k, None]
        self.utilization = np.empty((k, n + 1))
        self.block_utilization = self.utilization[:, :n]
        self.mean_utilization = self.utilization[:, n]
        self.power = np.empty((k, n + 1))
        self.powers = self.power[:, :n]
        self.unmonitored = self.power[:, n]
        self.activity = activity[:, :k]
        self.ends = stage.end[:, :k]
        self.steadies = stage.steady[:, :k]
        self.chips = stage.chip[:, :k]

    def sense(self, step, steps) -> list:
        return self.maxima(step).tolist()

    def advance(self, step) -> bool:
        start = self.starts[step]
        utilization, power, powers = self.utilization, self.power, self.powers
        block_utilization = self.block_utilization
        divisor, active_frac, idle_frac, peaks = self.tiles
        # A binary ufunc's ``out`` is passed by position, which numpy
        # parses faster than the keyword.
        np.multiply(self.activity[step], self.lane_ratios, block_utilization)
        np.add.reduce(block_utilization, axis=1, out=self.mean_utilization)
        np.divide(utilization, divisor, utilization)
        np.multiply(utilization, active_frac, power)
        np.add(power, idle_frac, power)
        np.multiply(power, peaks, power)
        for r, lane_leakage in self.leaky:
            # Quasi-static leakage at the sample's start state.
            powers[r] += lane_leakage.power(self.peaks, start[r])
        chip_power = np.add.reduce(powers, axis=1, out=self.chips[step])
        np.add(chip_power, self.unmonitored, chip_power)
        end, _ = self.advance_lanes(
            start, powers, self.sample,
            out=(self.ends[step], self.steadies[step]),
        )
        if self.stage.powers is not None:
            self.stage.powers[step, :self.k] = powers
        # A sum is finite only if every term is: one cheap test for the
        # common step, on Python floats; the exact per-lane mask (and
        # the rare overflowing sum) takes the masked path.
        return math.isfinite(
            sum(chip_power.tolist()) + sum(end.ravel().tolist())
        )


class _Compiled(_Form):
    """The compiled form, for independent lanes at every k: one C call
    (:mod:`repro.sim.lanestep`) runs the stacked pass's power pass and
    plant update for every live lane, straight into the stage's rows,
    tests each lane's sums for finiteness, and takes each end row's
    sensed maximum for the next step.  Its bits are the stacked
    pass's: numpy computes the leakage rows and the decay, and the
    sensed maximum wherever numpy's could differ from a plain compare
    (a NaN, or a maximum of zero, whose sign numpy picks) -- and on a
    form's first step, whose start rows no C call has seen.
    """

    def __init__(self, kernel, live, stage, activity, ratios) -> None:
        super().__init__(kernel, live, stage)
        k = self.k
        n = len(self.peaks)
        first = kernel.engines[0]
        model = first.thermal
        idle = float(first.power_model.idle_fraction)
        self.sensed = np.empty(k)
        self.leakage = np.empty((k, n))
        leaky = np.zeros(k, dtype=np.uint8)
        leaky[[r for r, _ in self.leaky]] = 1
        # Lane r senses blocks monitored[offsets[r]:offsets[r + 1]],
        # all of them where that range is empty.
        sizes = np.zeros(k + 1, dtype=np.int64)
        for r, blocks in self.placed:
            sizes[r + 1] = len(blocks)
        monitored = [blocks for _, blocks in self.placed]
        # Everything the C step reads; the arrays stay alive with it.
        self.arrays = dict(
            activity=activity,
            ratios=ratios,
            states=stage.rows,
            steady=stage.steady,
            chip=stage.chip,
            powers=stage.powers,
            scratch=np.empty(n),
            leakage=self.leakage,
            leaky=leaky,
            peaks=np.append(self.peaks, first.floorplan.unmonitored_peak_power),
            resistance=model._resistance,
            decay=model._decay(self.sample),
            monitored=np.concatenate(monitored or [[]]).astype(np.int64),
            offsets=np.cumsum(sizes),
            sensed=self.sensed,
        )
        self.pointer = lanestep.arguments(
            self.arrays, active=1.0 - idle, idle=idle,
            sink=model.heatsink_temperature, k=k,
        )
        self.step = first.telemetry.profiler.wrap(
            "thermal.advance", lanestep.kernel()
        )
        # The form's first step senses its start rows through numpy.
        self.deferred = True

    def sense(self, step, steps) -> list:
        sensed = self.sensed
        if self.deferred:
            self.maxima(step, sensed)
            self.deferred = False
        return sensed.tolist()

    def advance(self, step) -> bool:
        if self.leaky:
            start = self.starts[step]
            for r, lane_leakage in self.leaky:
                # Quasi-static leakage at the sample's start state.
                self.leakage[r] = lane_leakage.power(self.peaks, start[r])
        status = self.step(self.pointer, step)
        self.deferred = status & 2
        return not status & 1


class _Group(_Stacked):
    """A coupled lane group's step (see :class:`BatchEngine`): the
    stacked pass with the group's plant and hooks."""

    plant = "advance_lanes"

    def __init__(self, kernel, live, stage, activity, ratios) -> None:
        super().__init__(kernel, live, stage, activity, ratios)
        self.group = kernel.group
        self.quorum = self.k  # the lanes leave only all together

    def sense(self, step, steps) -> list:
        sensed = super().sense(step, steps)
        if self.group.arbitrate is not None:
            # Every core's DTM decision, then the coordinator's grant,
            # which the lane's on_sample returns.
            self.group.arbitrate(sensed, steps)
        return sensed

    def settle(self, live, step, steps, duties, warming) -> list[int]:
        # A non-finite core fails the whole run.
        self.group.check_finite(
            self.ends[step], self.chips[step], duties, steps
        )
        return []

    def finish(self, outcomes, steps, end) -> list[LaneOutcome]:
        # The chip's result, from its cores' outcomes.
        result = self.group.finish(self.stage, steps, outcomes, end)
        return [LaneOutcome(result=result)]


def _finish(stage: SampleStage, lane: _Lane, steps: int) -> LaneOutcome:
    """One leaving lane's outcome after ``steps`` steps."""
    if lane.error is not None:
        return LaneOutcome(error=lane.error)
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
