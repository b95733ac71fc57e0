"""Structured DTM decision tracing: one record per controller sample.

A :class:`TraceRecord` is the paper's Figure-4 data point plus the
controller internals Section 3 reasons about: block temperatures, the
gated measurement the policy saw, the error and P/I/D terms, the
controller output before and after saturation, the quantized duty the
actuator applied, and the failsafe state.  Discrete occurrences --
failsafe transitions, injected faults, engine milestones -- are
:class:`TraceEvent` entries on a separate bounded stream so decimation
of the periodic samples never loses them.

Long runs cannot keep every sample.  :class:`TraceRecorder` offers two
bounded retention modes:

* ``"ring"`` -- keep the **last** ``capacity`` records; right for
  post-mortems ("what led up to the emergency?");
* ``"decimate"`` -- keep the **whole run** at decreasing resolution:
  the emit ordinals that are multiples of a power-of-two stride, the
  smallest one that fits the run in ``capacity`` records.

Both are closed forms of the emit count (no clocks, no randomness), so
two identical runs retain identical records -- a property test asserts
this.  Retained rows are stored as :class:`TraceBlock` column chunks;
:class:`TraceRecord` objects are built only when read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from repro.errors import CodecError, TelemetryError

#: Retention strategies understood by :class:`TraceRecorder`.
TRACE_MODES = ("ring", "decimate")


@dataclass
class TraceRecord:
    """One DTM sampling instant, end-to-end through the control loop."""

    #: Measured-sample ordinal (warmup samples are not recorded).
    index: int
    #: Cycle count at the *end* of this sample (excludes warmup).
    cycle: int
    #: Benchmark / policy context (set once per run).
    benchmark: str = ""
    policy: str = ""
    # -- plant ---------------------------------------------------------------
    #: Hottest monitored block temperature fed to the manager [degC].
    sensed: float = math.nan
    #: End-of-sample hottest block temperature [degC].
    max_temp: float = math.nan
    #: End-of-sample per-block temperatures, floorplan order [degC].
    block_temps: tuple[float, ...] = ()
    #: Total chip power over the sample [W].
    chip_power: float = math.nan
    #: Achieved IPC over the sample.
    ipc: float = math.nan
    # -- controller ----------------------------------------------------------
    #: Measurement after sensor model + failsafe gating (NaN if withheld).
    measurement: float = math.nan
    #: setpoint - measurement (CT policies only).
    error: float = math.nan
    #: Proportional / integral / derivative contributions.
    p_term: float = math.nan
    i_term: float = math.nan
    d_term: float = math.nan
    #: Controller output before saturation to [0, 1].
    pre_saturation: float = math.nan
    #: Controller output after saturation (the commanded duty).
    post_saturation: float = math.nan
    #: Duty actually applied after actuator quantization (and faults).
    duty: float = math.nan
    #: Interrupt stall cycles charged to this sample.
    stall_cycles: int = 0
    # -- robustness layers ---------------------------------------------------
    #: Failsafe state name ("nominal" / "failsafe" / "degraded"), or
    #: "" when no guard is fitted.
    failsafe_state: str = ""
    #: Emergency / stress fraction of this sample (hottest block).
    emergency_fraction: float = 0.0
    stress_fraction: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serializable view (schema documented in docs/observability.md)."""
        return {
            "type": "sample",
            **vars(self),
            "block_temps": list(self.block_temps),
        }


@dataclass
class TraceEvent:
    """A discrete occurrence worth keeping regardless of decimation."""

    #: Event category: "failsafe_transition", "fault", "engine", ...
    kind: str
    #: Sample index at which the event fired.
    sample_index: int
    #: Short human-readable description.
    reason: str = ""
    #: Structured payload (state names, duties, fault channel, ...).
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable view."""
        return {
            "type": "event",
            "kind": self.kind,
            "sample_index": self.sample_index,
            "reason": self.reason,
            "data": dict(self.data),
        }


class EventLog:
    """A bounded, append-only list of :class:`TraceEvent` entries.

    Used standalone by components that must keep working without a
    shared recorder (the failsafe guard's compatibility event list) and
    as the event stream inside :class:`TraceRecorder`.  Drops silently
    once full -- an observability layer must never crash the loop it
    observes -- but counts what it dropped.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise TelemetryError("event log capacity must be positive")
        self.capacity = capacity
        self._events: list[TraceEvent] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def append(self, event: TraceEvent) -> None:
        """Record one event (silently dropped when full)."""
        if len(self._events) < self.capacity:
            self._events.append(event)
        else:
            self.dropped += 1

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """Events matching one category, oldest first."""
        return [event for event in self._events if event.kind == kind]

    def clear(self) -> None:
        """Forget all events (and the drop count)."""
        self._events.clear()
        self.dropped = 0


def _fields_of(kind: str) -> tuple[str, ...]:
    return tuple(f.name for f in fields(TraceRecord) if f.type == kind)


#: :class:`TraceRecord`'s float, int and string fields, each in the
#: dataclass's field order: the column order of :class:`TraceBlock`'s
#: ``floats`` (the block temperatures follow them), ``ints`` and ``text``.
FLOAT_FIELDS = _fields_of("float")
INT_FIELDS = _fields_of("int")
TEXT_FIELDS = _fields_of("str")
#: Column of each float field in :attr:`TraceBlock.floats`.
COLUMN = {name: column for column, name in enumerate(FLOAT_FIELDS)}
_float_row = operator.attrgetter(*FLOAT_FIELDS)


#: Records :meth:`TraceRecorder.record` gathers before it forms a block.
ROW_BATCH = 512


def decimation_stride(emitted: int, capacity: int) -> int:
    """The decimate stride after ``emitted`` emits: the smallest power
    of two ``s`` with ``ceil(emitted / s) <= capacity``."""
    return 1 << max(0, -(-emitted // capacity) - 1).bit_length()


@dataclass(frozen=True, eq=False)
class TraceBlock:
    """Rows of trace records as columns.

    ``floats`` is ``(rows, len(FLOAT_FIELDS) + blocks)`` float64 (the
    saved-trace layout of :mod:`repro.sim.codec`), ``ints`` is
    ``(rows, 3)`` int64 and ``text`` is ``(rows, 3)`` object.  Blocks
    are never written after construction, so recorders share them.
    """

    floats: np.ndarray
    ints: np.ndarray
    text: np.ndarray

    def __len__(self) -> int:
        return len(self.ints)

    def take(self, rows) -> TraceBlock:
        """The block of ``rows`` (a slice or an index array)."""
        return TraceBlock(self.floats[rows], self.ints[rows], self.text[rows])

    @staticmethod
    def concatenate(blocks) -> TraceBlock:
        """Equal-width blocks stacked in order."""
        return TraceBlock(*(
            np.concatenate(columns)
            for columns in zip(*((b.floats, b.ints, b.text) for b in blocks))
        ))

    @staticmethod
    def empty() -> TraceBlock:
        """A zero-row block with no block temperatures."""
        return TraceBlock(
            np.empty((0, len(FLOAT_FIELDS))),
            np.empty((0, len(INT_FIELDS)), dtype=np.int64),
            np.empty((0, len(TEXT_FIELDS)), dtype=object),
        )

    def records(self) -> list[TraceRecord]:
        """The rows as :class:`TraceRecord` objects."""
        scalars = len(FLOAT_FIELDS)
        # Positional (a third of the keyword cost): the float columns are
        # TraceRecord's field order with the other fields taken out.
        return [
            TraceRecord(index, cycle, benchmark, policy, *row[:2],
                        tuple(row[scalars:]), *row[2:12], stall, failsafe,
                        *row[12:scalars])
            for row, (index, cycle, stall), (benchmark, policy, failsafe)
            in zip(self.floats.tolist(), self.ints.tolist(),
                   self.text.tolist())
        ]


def _rows_of(block, start: int, step: int):
    """Rows ``start, start + step, ...`` of ``block``: the block itself
    when that is all of a :class:`TraceBlock`, else their copy."""
    if start == 0 and step == 1 and type(block) is TraceBlock:
        return block
    return block.take(np.arange(start, len(block), step))


class TraceRecorder:
    """Bounded retention of per-sample records plus an event stream.

    Retained rows live as :class:`TraceBlock` column chunks, in emit
    order.  Retention is a closed form of the emit count ``emitted``:
    ``"ring"`` keeps the last ``capacity`` emit ordinals, and
    ``"decimate"`` keeps the ordinals that are multiples of
    :attr:`stride`, the smallest power of two ``s`` with
    ``ceil(emitted / s) <= capacity``.  That is the set the classic
    per-record rule (keep ordinals on the stride; when full, drop every
    other retained record and double the stride) leaves, so a block of
    ``n`` rows retains exactly what ``n`` :meth:`record` calls would.
    """

    def __init__(
        self,
        capacity: int = 4096,
        mode: str = "decimate",
        event_capacity: int = 1024,
    ) -> None:
        if capacity < 2:
            raise TelemetryError("trace capacity must be at least 2")
        if mode not in TRACE_MODES:
            raise TelemetryError(
                f"unknown trace mode {mode!r}; expected one of {TRACE_MODES}"
            )
        self.capacity = capacity
        self.mode = mode
        self.events = EventLog(event_capacity)
        self._blocks: list[TraceBlock] = []
        #: The stride the held blocks are decimated to (``"decimate"``).
        self._stride = 1
        #: Rows :meth:`record` emitted that are not in a block yet.
        self._rows: list[tuple] = []
        #: Total records ever emitted (pre-retention).
        self.emitted = 0

    # -- write side ----------------------------------------------------------
    def record(self, record: TraceRecord) -> None:
        """Retain one per-sample record under the configured policy.

        Every float field must hold a ``float`` (``np.float64``
        included): an int or a string would come back as a float64, so
        it is refused rather than silently changed.  Records gather into
        one block per :data:`ROW_BATCH` (or per width, or per read):
        retention is a closed form of the emit count, so deferring the
        block keeps exactly the rows per-record retention would.
        """
        row = _float_row(record) + tuple(record.block_temps)
        kinds = set(map(type, row))
        odd = sorted(k.__name__ for k in kinds if not issubclass(k, float))
        if odd:
            raise CodecError(f"trace float fields must hold floats, got {odd}")
        if self._rows and len(self._rows[-1][0]) != len(row):
            self._flush_rows()
        self._rows.append((
            row,
            [getattr(record, name) for name in INT_FIELDS],
            [getattr(record, name) for name in TEXT_FIELDS],
        ))
        self.emitted += 1
        if len(self._rows) >= ROW_BATCH:
            self._flush_rows()

    def _flush_rows(self) -> None:
        """Retain the rows :meth:`record` gathered, as one block."""
        rows, self._rows = self._rows, []
        if not rows:
            return
        floats, ints, texts = zip(*rows)
        text = np.empty((len(rows), len(TEXT_FIELDS)), dtype=object)
        text[:] = texts
        self.emitted -= len(rows)
        self.record_many(TraceBlock(
            np.array(floats), np.array(ints, dtype=np.int64), text
        ))

    def record_many(self, block: TraceBlock) -> None:
        """Emit ``block``'s rows in order, as one :meth:`record` each.

        A :class:`TraceBlock` retained whole is kept as it is, not
        copied: blocks are never written after construction.
        """
        self._flush_rows()
        first, count = self.emitted, len(block)
        self.emitted += count
        if self.mode == "ring":
            self._append(_rows_of(block, max(0, count - self.capacity), 1))
            excess = len(self) - self.capacity
            while excess > 0:
                head = self._blocks[0]
                self._blocks[0] = head.take(slice(excess, None))
                if not len(self._blocks[0]):
                    del self._blocks[0]
                excess -= len(head)
            return
        # Retained rows are the ordinals 0, s, 2s, ... of the old stride
        # s, in order: position p holds ordinal p * s.
        stride = decimation_stride(self.emitted, self.capacity)
        if stride != self._stride:
            step, position, kept = stride // self._stride, 0, []
            for held in self._blocks:
                rows = np.arange(-position % step, len(held), step)
                position += len(held)
                if len(rows):
                    kept.append(held.take(rows))
            self._blocks, self._stride = kept, stride
        self._append(_rows_of(block, -first % stride, stride))

    def _append(self, block: TraceBlock) -> None:
        if len(block):
            self._blocks.append(block)

    def event(
        self, kind: str, sample_index: int, reason: str = "", **data
    ) -> TraceEvent:
        """Append a :class:`TraceEvent` to the event stream."""
        event = TraceEvent(kind, sample_index, reason, data)
        self.events.append(event)
        return event

    # -- read side -----------------------------------------------------------
    @property
    def stride(self) -> int:
        """Current decimation stride (1 = every sample retained)."""
        if self.mode == "ring":
            return 1
        return decimation_stride(self.emitted, self.capacity)

    def blocks(self) -> list[TraceBlock]:
        """The retained rows as column blocks, in emit order."""
        self._flush_rows()
        return list(self._blocks)

    def records(self) -> list[TraceRecord]:
        """Retained records in emit order, built from the blocks."""
        return [record for block in self.blocks() for record in block.records()]

    def __len__(self) -> int:
        self._flush_rows()
        return sum(map(len, self._blocks))

    def clear(self) -> None:
        """Forget all records and events; retention state restarts."""
        self._blocks = []
        self._rows = []
        self.events.clear()
        self._stride = 1
        self.emitted = 0
