"""Deferred threshold accounting of the sample kernel.

The paper counts emergency and stress time with sub-sample accuracy
from the closed-form RC trajectory
(:meth:`~repro.thermal.lumped.LumpedThermalModel.fractions_above`).  No
controller reads those fractions: they feed only the run's
accumulators, its history rows and its telemetry records.  So the
kernel does not evaluate them per sample.  Each sample's ``(start,
steady, end)`` block rows go into a :class:`SampleStage` -- fixed
:data:`STAGE_ROWS`-step buffers with one column per lane, the states in
one buffer whose row ``s`` ends step ``s - 1`` and starts step ``s``,
which the kernel's thermal update writes its steady and end state into
directly (the stacked update in place; a one-lane step assigns its
Python-float rows) -- and the stage's :meth:`~SampleStage.flush`
post-pass then

* evaluates every threshold fraction of the chunk in one broadcast
  ``fractions_above`` call;
* adds the chunk into the emergency/stress cycle counts, the per-block
  fraction totals, the per-block temperature sums and the chip power,
  energy and interrupt-stall totals with ``np.cumsum`` along the sample
  axis, the running total as row 0.  ``cumsum`` adds in sample order,
  exactly as the per-sample ``+=`` it replaces; ``np.sum`` would add
  pairwise and change the bits.  Temperature and power peaks take a
  ``max``, which is exact in any order;
* fills the history rows;
* hands each lane's telemetry sink the lane's rows of the chunk as one
  column block (:meth:`~repro.telemetry.core.Telemetry.record_block`),
  in sample order, with the controller halves each sample took from
  :meth:`~repro.telemetry.core.Telemetry.take_control` transposed once
  per chunk; a coupled lane group (one multicore chip) reduces across
  lanes and hands the chip's sink one row per sample instead;
* carries the last end row to row 0, one copy per chunk.

No controller reads any of these totals either, so the stage owns
them: the kernel keeps only what steers a run (its committed
instructions, warmup and cycle budget).

The kernel flushes when the chunk is full, when a lane leaves, and
when its run ends or raises (the non-finite ``SimulationError``
included), so a run's records and results are bit-identical to a
per-sample loop's.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.results import History, RunResult
from repro.telemetry.core import NO_CONTROL

#: Samples (kernel steps) staged per threshold pass.  A module
#: constant, not a knob: results do not depend on it, and 512 rows keep
#: a chunk under a megabyte.
STAGE_ROWS = 512

def _running_sum(total: np.ndarray, rows: np.ndarray, axis: int) -> np.ndarray:
    """``total`` plus every slice of ``rows`` along ``axis``, in order."""
    stacked = np.concatenate((np.expand_dims(total, axis), rows), axis=axis)
    return np.cumsum(stacked, axis=axis).take(-1, axis=axis)


class _HistoryRows:
    """One lane's history rows, as the blocks its flushes measured."""

    def __init__(self) -> None:
        self.blocks: dict[str, list[np.ndarray]] = {}

    def extend(self, **columns) -> None:
        """Append rows; each keyword names one :class:`History` column."""
        for name, values in columns.items():
            self.blocks.setdefault(name, []).append(
                np.asarray(values, dtype=float)
            )

    def build(self, sample_cycles: int, names) -> History:
        """The recorded rows, each column joined into one array."""
        return History(
            sample_cycles=sample_cycles,
            names=names,
            **{
                name: np.concatenate(blocks)
                for name, blocks in self.blocks.items()
            },
        )


class SampleStage:
    """Staged measured samples of one or more lanes, and their totals.

    ``engines`` are the kernel's engines, one lane (column slot) each;
    they share lane 0's environment (floorplan, sampling interval,
    thresholds).  Step ``s`` starts on row ``s`` of :attr:`rows` and
    ends on row ``s`` of :attr:`end`, the view ``rows[1:]``.  Per step
    the kernel writes the rows of its live lanes into columns ``[:k]``
    of row ``s`` of :attr:`end`, :attr:`steady`, :attr:`chip` (chip
    power) and :attr:`stalls` (interrupt stall cycles), and -- only
    when :attr:`keep_rows` (some lane records telemetry or history) --
    of :attr:`sensed`, :attr:`committed` (recording lanes only) and
    :attr:`powers` (history only), appending
    ``(duties, controls, latency_seconds)`` to :attr:`extras`.  A
    step in which a live lane did not measure (warmup, or a
    non-finite state) clears that lane's :attr:`measured` cell, gives
    its non-finite start and steady cells finite values, and sets
    :attr:`masked`.

    :meth:`flush` then receives ``slots``, the engine index of every
    column in order.  Totals are per slot: :attr:`peak_cycles`
    ``(thresholds, lanes)``, :attr:`block_cycles`
    ``(thresholds, lanes, blocks)``, :attr:`temp_sum` and
    :attr:`temp_max` ``(lanes, blocks)``, :attr:`chip_sums` ``(3,
    lanes)`` (chip power, energy in joules, stall cycles) and
    :attr:`chip_max` ``(lanes,)``.

    ``group`` is a coupled lane group (see
    :class:`~repro.sim.batch.BatchEngine`), whose :attr:`chip` cells
    are core powers.  Its flush reduces each step across lanes into
    :attr:`group_sums` (chip power, energy, then each threshold's
    cycles, a maximum over lanes) and :attr:`group_max`, and adds each
    lane's hottest end temperature into :attr:`hottest_sum`.
    """

    def __init__(self, engines, group=None) -> None:
        first = engines[0]
        lanes = len(engines)
        blocks = len(first.floorplan.names)
        self._thermal = first.thermal
        self._sample = first.dtm_config.sampling_interval
        self._seconds = self._sample * first.machine.cycle_time
        self._thresholds = thresholds = (
            first.thermal_config.emergency_temperature,
            first.dtm_config.nonct_trigger,
        )
        shape = (STAGE_ROWS, lanes, blocks)
        self.rows = np.empty((STAGE_ROWS + 1, lanes, blocks))
        self.end = self.rows[1:]
        self.steady = np.empty(shape)
        self.measured = np.ones((STAGE_ROWS, lanes), dtype=bool)
        self.masked = False
        self.peak_cycles = np.zeros((len(thresholds), lanes))
        self.block_cycles = np.zeros((len(thresholds), lanes, blocks))
        self.temp_sum = np.zeros((lanes, blocks))
        self.temp_max = np.full((lanes, blocks), -np.inf)
        self.chip = np.empty((STAGE_ROWS, lanes))
        self.stalls = np.empty((STAGE_ROWS, lanes))
        self.chip_sums = np.zeros((3, lanes))
        self.chip_max = np.zeros(lanes)

        self._recorders = [
            engine.telemetry if engine.telemetry.enabled else None
            for engine in engines
        ]
        self._histories = [
            _HistoryRows() if engine.record_history else None
            for engine in engines
        ]
        #: Measured samples emitted per slot (the next record's index).
        self._emitted = [0] * lanes
        self._emitted_chip = 0
        self._group = group
        self._chip_sink = None
        if group is not None:
            self.group_sums = np.zeros(2 + len(thresholds))
            self.group_max = 0.0
            self.hottest_sum = np.zeros(lanes)
            if group.telemetry.enabled:
                self._chip_sink = group.telemetry
        self.keep_rows = (
            any(recorder is not None for recorder in self._recorders)
            or any(history is not None for history in self._histories)
            or self._chip_sink is not None
        )
        if self.keep_rows:
            self.sensed = np.empty((STAGE_ROWS, lanes))
            self.committed = np.empty((STAGE_ROWS, lanes))
            self.extras: list[tuple] = []
        self.powers = (
            np.empty(shape)
            if any(history is not None for history in self._histories)
            else None
        )

    def flush(self, steps: int, slots: np.ndarray) -> None:
        """The post-pass over the first ``steps`` staged rows."""
        if not steps:
            return
        lanes = len(slots)
        sample = self._sample
        start = self.rows[:steps, :lanes]
        steady = self.steady[:steps, :lanes]
        end = self.end[:steps, :lanes]
        chip = self.chip[:steps, :lanes]
        stalls = self.stalls[:steps, :lanes]
        # (thresholds, steps, lanes, blocks): one broadcast pass.
        fractions = self._thermal.fractions_above(
            start, steady, self._seconds, self._thresholds
        )
        peaks = fractions.max(axis=3)
        block_cycles = fractions * sample
        peak_cycles = peaks * sample
        mask = None
        if self.masked:
            # Adding +0.0 leaves a total bit-identical: every total
            # starts at +0.0, and a sum of +0.0 and anything is only
            # -0.0 when both are.
            mask = self.measured[:steps, :lanes]
            cells = mask[:, :, None]
            block_cycles = np.where(cells, block_cycles, 0.0)
            peak_cycles = np.where(mask, peak_cycles, 0.0)
            end_sum = np.where(cells, end, 0.0)
            end_max = np.where(cells, end, -np.inf)
            # Chip power is positive and its peak starts at 0.0, so a
            # masked 0.0 cell cannot raise the peak either.
            chip = np.where(mask, chip, 0.0)
            stalls = np.where(mask, stalls, 0.0)
        else:
            end_sum = end_max = end
        self.peak_cycles[:, slots] = _running_sum(
            self.peak_cycles[:, slots], peak_cycles, axis=1
        )
        self.block_cycles[:, slots] = _running_sum(
            self.block_cycles[:, slots], block_cycles, axis=1
        )
        self.temp_sum[slots] = _running_sum(
            self.temp_sum[slots], end_sum, axis=0
        )
        self.temp_max[slots] = np.maximum(
            self.temp_max[slots], end_max.max(axis=0)
        )
        self.chip_sums[:, slots] = _running_sum(
            self.chip_sums[:, slots],
            np.stack((chip, chip * self._seconds, stalls)),
            axis=1,
        )
        self.chip_max[slots] = np.maximum(
            self.chip_max[slots], chip.max(axis=0)
        )
        if self._group is not None:
            # A group never masks: a non-finite core fails the run.
            totals = np.add.reduce(chip, axis=1)
            hottest = end.max(axis=2)
            self.group_sums = _running_sum(
                self.group_sums,
                np.concatenate((
                    [totals, totals * self._seconds],
                    peaks.max(axis=2) * sample,
                )),
                axis=1,
            )
            self.group_max = max(self.group_max, float(totals.max()))
            self.hottest_sum[slots] = _running_sum(
                self.hottest_sum[slots], hottest, axis=0
            )
            if self._chip_sink is not None:
                self._emit_chip(steps, lanes, peaks, totals, hottest)
        if self.keep_rows:
            self._emit(steps, slots.tolist(), fractions, peaks, mask)
            self.extras.clear()
        if mask is not None:
            mask[:] = True
            self.masked = False
        # The last end row is the next chunk's first start row.
        self.rows[0, :lanes] = self.rows[steps, :lanes]

    def _emit_chip(self, steps, lanes, peaks, totals, hottest) -> None:
        """Hand the group's sink one chip row per step, as one block.

        Its block temperatures are the lanes' hottest blocks, its IPC
        and duty the lanes' sum and mean, its other columns the maxima
        over lanes; no controller stages a chip-level half (NaN).
        """
        first = self._emitted_chip
        self._emitted_chip = first + steps
        index = np.arange(first, first + steps)
        floats = np.column_stack((
            self.sensed[:steps, :lanes].max(axis=1),
            hottest.max(axis=1),
            totals,
            np.add.reduce(self.committed[:steps, :lanes], axis=1)
            / self._sample,
            np.full((steps, 7), np.nan),
            np.array([extra[0] for extra in self.extras]).mean(axis=1),
            peaks[0].max(axis=1),
            peaks[1].max(axis=1),
            hottest,
        ))
        ints = np.column_stack((index, (index + 1) * self._sample, 0 * index))
        nan = np.full(steps, np.nan)
        self._chip_sink.record_block(floats, ints, [""] * steps, nan)

    def _emit(self, steps, slots, fractions, peaks, mask) -> None:
        """Fill each lane's history rows and hand its sink one block."""
        lanes = len(slots)
        end = self.end[:steps, :lanes]
        max_temp = end.max(axis=2)
        extras = self.extras
        for column, slot in enumerate(slots):
            history = self._histories[slot]
            telemetry = self._recorders[slot]
            if history is None and telemetry is None:
                continue
            rows = (
                np.arange(steps)
                if mask is None
                else np.flatnonzero(mask[:, column])
            )
            duty = [extras[row][0][column] for row in rows.tolist()]
            if history is not None:
                history.extend(
                    max_temp=max_temp[rows, column],
                    duty=duty,
                    chip_power=self.chip[rows, column],
                    block_temps=end[rows, column],
                    block_powers=self.powers[rows, column],
                    block_emergency=fractions[0, rows, column],
                    block_stress=fractions[1, rows, column],
                )
            if telemetry is not None and len(rows):
                self._emit_chunk(
                    telemetry, slot, rows, column, duty, max_temp, peaks
                )

    def _emit_chunk(
        self, telemetry, slot, rows, column, duty, max_temp, peaks
    ) -> None:
        """Hand one lane's measured ``rows`` to its sink as one block."""
        first = self._emitted[slot]
        self._emitted[slot] = first + len(rows)
        index = np.arange(first, first + len(rows))
        extras = [self.extras[row] for row in rows.tolist()]
        # The staged controller halves, transposed once per chunk.
        control = list(zip(*(
            extra[1][column] or NO_CONTROL for extra in extras
        )))
        # The float columns in FLOAT_FIELDS order, then the block rows.
        floats = np.column_stack((
            self.sensed[rows, column],
            max_temp[rows, column],
            self.chip[rows, column],
            self.committed[rows, column] / self._sample,
            np.transpose(control[1:8]),
            duty,
            peaks[0][rows, column],
            peaks[1][rows, column],
            self.end[rows, column],
        ))
        ints = np.column_stack((index, (index + 1) * self._sample, control[9]))
        latency = np.array([extra[2] for extra in extras])
        telemetry.record_block(floats, ints, control[10], latency)

    def result(
        self,
        slot: int,
        engine,
        *,
        samples: int,
        instructions: float,
        max_cycles: int,
    ) -> RunResult:
        """One lane's :class:`RunResult` from its flushed totals.

        Raises :class:`SimulationError` when the lane measured nothing.
        """
        if samples == 0:
            raise SimulationError(
                f"run of profile {engine.profile.name!r} produced no samples",
                policy=engine.policy.name,
                max_cycles=max_cycles,
            )
        cycles = samples * self._sample
        names = engine.floorplan.names
        extra: dict[str, float] = {}
        guard = engine.manager.failsafe
        if guard is not None:
            extra["failsafe_engagements"] = float(guard.engagements)
            extra["failsafe_rejected_samples"] = float(guard.rejected_samples)
            extra["failsafe_degraded_samples"] = float(guard.degraded_samples)
            extra["failsafe_forced_samples"] = float(guard.failsafe_samples)
        backup = getattr(engine.policy, "backup_engagements", None)
        if backup is not None:
            extra["backup_engagements"] = float(backup)
        history = self._histories[slot]
        emergency = self.block_cycles[0, slot]
        stress = self.block_cycles[1, slot]
        temp_sum = self.temp_sum[slot]
        temp_max = self.temp_max[slot]
        power_sum, energy_joules, stalls = self.chip_sums[:, slot].tolist()
        return RunResult(
            benchmark=engine.profile.name,
            policy=engine.policy.name,
            cycles=cycles,
            instructions=instructions,
            emergency_fraction=float(self.peak_cycles[0, slot]) / cycles,
            stress_fraction=float(self.peak_cycles[1, slot]) / cycles,
            block_emergency_fraction={
                name: float(emergency[i]) / cycles
                for i, name in enumerate(names)
            },
            block_stress_fraction={
                name: float(stress[i]) / cycles
                for i, name in enumerate(names)
            },
            mean_block_temperature={
                name: float(temp_sum[i]) / samples
                for i, name in enumerate(names)
            },
            max_block_temperature={
                name: float(temp_max[i]) for i, name in enumerate(names)
            },
            mean_chip_power=power_sum / samples,
            max_chip_power=float(self.chip_max[slot]),
            energy_joules=energy_joules,
            engaged_fraction=engine.manager.engaged_fraction,
            interrupt_events=engine.manager.interrupts.events,
            interrupt_stall_cycles=int(stalls),
            history=(
                None
                if history is None
                else history.build(self._sample, names)
            ),
            extra=extra,
        )
