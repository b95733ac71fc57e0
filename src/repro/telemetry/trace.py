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

* ``"ring"`` -- keep the **last** ``capacity`` records (wraparound);
  right for post-mortems ("what led up to the emergency?");
* ``"decimate"`` -- keep the **whole run** at decreasing resolution:
  when the buffer fills, every other retained record is dropped and
  the keep-stride doubles, so the trace always spans the run with at
  most ``capacity`` records.  Decimation is a pure function of the
  emit sequence (no clocks, no randomness), so two identical runs
  retain identical records -- a property test asserts this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import TelemetryError

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
            "index": self.index,
            "cycle": self.cycle,
            "benchmark": self.benchmark,
            "policy": self.policy,
            "sensed": self.sensed,
            "max_temp": self.max_temp,
            "block_temps": list(self.block_temps),
            "chip_power": self.chip_power,
            "ipc": self.ipc,
            "measurement": self.measurement,
            "error": self.error,
            "p_term": self.p_term,
            "i_term": self.i_term,
            "d_term": self.d_term,
            "pre_saturation": self.pre_saturation,
            "post_saturation": self.post_saturation,
            "duty": self.duty,
            "stall_cycles": self.stall_cycles,
            "failsafe_state": self.failsafe_state,
            "emergency_fraction": self.emergency_fraction,
            "stress_fraction": self.stress_fraction,
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


class TraceRecorder:
    """Bounded retention of per-sample records plus an event stream."""

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
        self._records: list[TraceRecord] = []
        #: Ring write head (``"ring"`` mode only).
        self._head = 0
        #: Current keep-stride over emit ordinals (``"decimate"`` only).
        self._stride = 1
        #: Total records ever emitted (pre-retention).
        self.emitted = 0

    # -- write side ----------------------------------------------------------
    def _admit(self) -> int:
        """Advance the emit sequence by one record; return its slot.

        The slot is the position in the retained list the record takes
        (``len`` appends), or -1 when retention drops it.  This is the
        one retention rule: :meth:`record` and :meth:`record_many` both
        step through it, and it decides before the record exists.
        """
        ordinal = self.emitted
        self.emitted += 1
        if self.mode == "ring":
            if len(self._records) < self.capacity:
                return len(self._records)
            slot = self._head
            self._head = (slot + 1) % self.capacity
            return slot
        # Decimation: keep emit ordinals divisible by the stride; on
        # overflow, drop every other retained record and double the
        # stride.  Both steps depend only on the emit sequence.
        if ordinal % self._stride:
            return -1
        if len(self._records) >= self.capacity:
            self._records = self._records[::2]
            self._stride *= 2
            if ordinal % self._stride:
                return -1
        return len(self._records)

    def _place(self, slot: int, record) -> None:
        if slot == len(self._records):
            self._records.append(record)
        else:
            self._records[slot] = record

    def record(self, record: TraceRecord) -> None:
        """Retain one per-sample record under the configured policy."""
        slot = self._admit()
        if slot >= 0:
            self._place(slot, record)

    def record_many(self, count: int, build) -> None:
        """Emit ``count`` records exactly as ``count`` :meth:`record` calls.

        ``build(i)`` makes the batch's ``i``-th record and is called
        only for records retention keeps on arrival: in ``"decimate"``
        mode the ordinals on the stride, in ``"ring"`` mode the last
        ``capacity`` of the batch (every earlier one is overwritten
        before the batch ends, so its slot holds a placeholder until
        then).  ``emitted``, the stride and the ring head end where the
        per-record calls leave them.
        """
        first_built = count - self.capacity if self.mode == "ring" else 0
        for i in range(count):
            slot = self._admit()
            if slot >= 0:
                self._place(slot, build(i) if i >= first_built else None)

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
        return self._stride

    def records(self) -> list[TraceRecord]:
        """Retained records in emit order (unrolls the ring)."""
        if self.mode == "ring" and self._head:
            return self._records[self._head:] + self._records[: self._head]
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Forget all records and events; retention state restarts."""
        self._records.clear()
        self.events.clear()
        self._head = 0
        self._stride = 1
        self.emitted = 0
