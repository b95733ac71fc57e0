"""Deferred threshold accounting shared by the scalar and lane kernels.

The paper counts emergency and stress time with sub-sample accuracy
from the closed-form RC trajectory
(:meth:`~repro.thermal.lumped.LumpedThermalModel.fractions_above`).  No
controller reads those fractions: they feed only the run's
accumulators, its history rows and its telemetry records.  So neither
sample kernel evaluates them per sample.  Each measured sample copies
its ``(start, steady, end)`` block rows into a :class:`SampleStage` --
fixed :data:`STAGE_ROWS`-row buffers with one column per lane -- and
the stage's :meth:`~SampleStage.flush` post-pass then

* evaluates every threshold fraction of the chunk in one broadcast
  ``fractions_above`` call;
* adds the chunk into the emergency/stress cycle counts, the per-block
  fraction totals and the per-block temperature sums with ``np.cumsum``
  along the sample axis, the running total as row 0.  ``cumsum`` adds
  in sample order, exactly as the per-sample ``+=`` it replaces;
  ``np.sum`` would add pairwise and change the bits.  Temperature peaks
  take a ``max``, which is exact in any order;
* fills the history rows;
* hands each lane's telemetry sink the lane's rows of the chunk as one
  column block (:meth:`~repro.telemetry.core.Telemetry.record_block`),
  in sample order, with the controller halves each sample took from
  :meth:`~repro.telemetry.core.Telemetry.take_control` transposed once
  per chunk.

A kernel flushes when the chunk is full, when a lane leaves the lane
kernel, and when its run ends or raises (the non-finite
``SimulationError`` included), so a run's records and results are
bit-identical to the per-sample loop's.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.results import History, RunResult
from repro.telemetry.core import NO_CONTROL

#: Samples (lane-kernel steps) staged per threshold pass.  A module
#: constant, not a knob: results do not depend on it, and 512 rows keep
#: a lane-kernel chunk under a megabyte.
STAGE_ROWS = 512

#: Column index array of the scalar kernel's single lane.
LANE0 = np.zeros(1, dtype=np.intp)


def _running_sum(total: np.ndarray, rows: np.ndarray, axis: int) -> np.ndarray:
    """``total`` plus every slice of ``rows`` along ``axis``, in order."""
    stacked = np.concatenate((np.expand_dims(total, axis), rows), axis=axis)
    return np.cumsum(stacked, axis=axis).take(-1, axis=axis)


class _HistoryRows:
    """One lane's history buffers (amortized-doubling growth)."""

    def __init__(self, block_count: int) -> None:
        self.size = 0
        self.max_temp = np.empty(1024)
        self.duty = np.empty(1024)
        self.chip_power = np.empty(1024)
        self.block_temps = np.empty((1024, block_count))
        self.block_powers = np.empty((1024, block_count))
        self.block_emergency = np.empty((1024, block_count))
        self.block_stress = np.empty((1024, block_count))

    def extend(self, **columns) -> None:
        """Append rows; each keyword names one buffer."""
        start = self.size
        stop = start + len(columns["max_temp"])
        capacity = len(self.max_temp)
        if stop > capacity:
            while capacity < stop:
                capacity *= 2
            for name in columns:
                buffer = getattr(self, name)
                grown = np.empty((capacity, *buffer.shape[1:]))
                grown[:start] = buffer[:start]
                setattr(self, name, grown)
        for name, values in columns.items():
            getattr(self, name)[start:stop] = values
        self.size = stop

    def build(self, sample_cycles: int, names) -> History:
        """The recorded rows, trimmed (the copies drop the growth slack)."""
        size = self.size
        return History(
            sample_cycles=sample_cycles,
            names=names,
            max_temp=self.max_temp[:size].copy(),
            duty=self.duty[:size].copy(),
            chip_power=self.chip_power[:size].copy(),
            block_temps=self.block_temps[:size].copy(),
            block_powers=self.block_powers[:size].copy(),
            block_emergency=self.block_emergency[:size].copy(),
            block_stress=self.block_stress[:size].copy(),
        )


class SampleStage:
    """Staged measured samples of one or more lanes, and their totals.

    ``engines`` are the kernel's engines, one lane (column slot) each;
    they share ``thermal``'s floorplan.  Per step a kernel writes the
    rows of its live lanes into columns ``[:k]`` of row ``s`` of
    :attr:`start`, :attr:`steady` and :attr:`end`, and -- only when
    :attr:`keep_rows` (some lane records telemetry or history) -- of
    :attr:`sensed`, :attr:`chip`, :attr:`committed` and
    :attr:`powers` (history only), appending
    ``(duties, controls, latency_seconds)`` to :attr:`extras`.  A lane
    kernel step in which a live lane did not measure (warmup, or a
    non-finite state) clears that lane's :attr:`measured` cell, fills
    its rows with finite values, and sets :attr:`masked`.

    :meth:`flush` then receives ``slots``, the engine index of every
    column in order.  Totals are per slot: :attr:`peak_cycles`
    ``(thresholds, lanes)``, :attr:`block_cycles`
    ``(thresholds, lanes, blocks)``, :attr:`temp_sum` and
    :attr:`temp_max` ``(lanes, blocks)``.
    """

    def __init__(
        self, thermal, engines, sample: int, sample_seconds: float, thresholds
    ) -> None:
        lanes = len(engines)
        blocks = len(thermal.names)
        self._thermal = thermal
        self._sample = sample
        self._seconds = sample_seconds
        self._thresholds = thresholds
        shape = (STAGE_ROWS, lanes, blocks)
        self.start = np.empty(shape)
        self.steady = np.empty(shape)
        self.end = np.empty(shape)
        self.measured = np.ones((STAGE_ROWS, lanes), dtype=bool)
        self.masked = False
        self.peak_cycles = np.zeros((len(thresholds), lanes))
        self.block_cycles = np.zeros((len(thresholds), lanes, blocks))
        self.temp_sum = np.zeros((lanes, blocks))
        self.temp_max = np.full((lanes, blocks), -np.inf)

        self._recorders = [
            engine.telemetry if engine.telemetry.enabled else None
            for engine in engines
        ]
        self._histories = [
            _HistoryRows(blocks) if engine.record_history else None
            for engine in engines
        ]
        #: Measured samples emitted per slot (the next record's index).
        self._emitted = [0] * lanes
        self.keep_rows = any(
            recorder is not None for recorder in self._recorders
        ) or any(history is not None for history in self._histories)
        if self.keep_rows:
            self.sensed = np.empty((STAGE_ROWS, lanes))
            self.chip = np.empty((STAGE_ROWS, lanes))
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
        start = self.start[:steps, :lanes]
        steady = self.steady[:steps, :lanes]
        end = self.end[:steps, :lanes]
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
        if self.keep_rows:
            self._emit(steps, slots.tolist(), fractions, peaks, mask)
            self.extras.clear()
        if mask is not None:
            mask[:] = True
            self.masked = False

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
        power_sum: float,
        power_max: float,
        energy_joules: float,
        interrupt_stalls: int,
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
            max_chip_power=power_max,
            energy_joules=energy_joules,
            engaged_fraction=engine.manager.engaged_fraction,
            interrupt_events=engine.manager.interrupts.events,
            interrupt_stall_cycles=interrupt_stalls,
            history=(
                None
                if history is None
                else history.build(self._sample, names)
            ),
            extra=extra,
        )
