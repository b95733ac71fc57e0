"""Trace and metrics serialization: JSONL and CSV writers, JSONL reader.

The JSONL trace format is line-oriented so multi-gigabyte traces can
be streamed and ``grep``-ed:

* line 1 is a ``{"type": "meta", ...}`` header (schema version,
  benchmark/policy context, block names, retention statistics);
* each retained sample is a ``{"type": "sample", ...}`` line (see
  :meth:`~repro.telemetry.trace.TraceRecord.to_dict`);
* each discrete event is a ``{"type": "event", ...}`` line, written
  after the samples.

``NaN`` field values (e.g. P/I/D terms under a non-CT policy) are
written as JSON ``null`` and mapped back to ``nan`` on read, keeping
the files strictly valid JSON.  The CSV exporter flattens block
temperatures into one ``temp_<block>`` column each for
spreadsheet-style analysis.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import TelemetryError
from repro.telemetry.trace import TraceEvent, TraceRecord, TraceRecorder

#: Version tag written into every trace header.
TRACE_SCHEMA = "repro.trace/v1"

#: TraceRecord float fields serialized with NaN -> null mapping.
_FLOAT_FIELDS = (
    "sensed",
    "max_temp",
    "chip_power",
    "ipc",
    "measurement",
    "error",
    "p_term",
    "i_term",
    "d_term",
    "pre_saturation",
    "post_saturation",
    "duty",
)


def _nan_to_none(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _none_to_nan(value) -> float:
    return math.nan if value is None else float(value)


def _sample_line(record: TraceRecord) -> str:
    data = record.to_dict()
    for key in _FLOAT_FIELDS:
        data[key] = _nan_to_none(data[key])
    data["block_temps"] = [_nan_to_none(t) for t in data["block_temps"]]
    return json.dumps(data, allow_nan=False)


def record_from_dict(data: dict) -> TraceRecord:
    """Rebuild a :class:`TraceRecord` from its ``to_dict`` form.

    Accepts both strict-JSON dicts (NaN written as ``null``, as in the
    JSONL trace files) and Python-JSON dicts (NaN preserved): ``None``
    maps back to ``nan`` either way.  Saved sweep payloads do not come
    through here; they carry records column-wise
    (:func:`repro.sim.codec.telemetry_to_dict`).
    """
    return TraceRecord(
        index=data["index"],
        cycle=data["cycle"],
        benchmark=data.get("benchmark", ""),
        policy=data.get("policy", ""),
        sensed=_none_to_nan(data.get("sensed")),
        max_temp=_none_to_nan(data.get("max_temp")),
        block_temps=tuple(
            _none_to_nan(t) for t in data.get("block_temps", ())
        ),
        chip_power=_none_to_nan(data.get("chip_power")),
        ipc=_none_to_nan(data.get("ipc")),
        measurement=_none_to_nan(data.get("measurement")),
        error=_none_to_nan(data.get("error")),
        p_term=_none_to_nan(data.get("p_term")),
        i_term=_none_to_nan(data.get("i_term")),
        d_term=_none_to_nan(data.get("d_term")),
        pre_saturation=_none_to_nan(data.get("pre_saturation")),
        post_saturation=_none_to_nan(data.get("post_saturation")),
        duty=_none_to_nan(data.get("duty")),
        stall_cycles=data.get("stall_cycles", 0),
        failsafe_state=data.get("failsafe_state", ""),
        emergency_fraction=data.get("emergency_fraction", 0.0),
        stress_fraction=data.get("stress_fraction", 0.0),
    )


def event_from_dict(data: dict) -> TraceEvent:
    """Rebuild a :class:`TraceEvent` from its ``to_dict`` form."""
    return TraceEvent(
        kind=data["kind"],
        sample_index=data["sample_index"],
        reason=data.get("reason", ""),
        data=data.get("data", {}),
    )


def write_trace_jsonl(
    recorder: TraceRecorder,
    path: str | Path,
    meta: dict | None = None,
) -> int:
    """Write a recorder's retained trace to ``path``; returns line count."""
    path = Path(path)
    header = {
        "type": "meta",
        "schema": TRACE_SCHEMA,
        "emitted": recorder.emitted,
        "retained": len(recorder),
        "mode": recorder.mode,
        "stride": recorder.stride,
        "events": len(recorder.events),
        "events_dropped": recorder.events.dropped,
    }
    if meta:
        header.update(meta)
    lines = [json.dumps(header, allow_nan=False)]
    lines.extend(_sample_line(record) for record in recorder.records())
    lines.extend(
        json.dumps(event.to_dict(), allow_nan=False)
        for event in recorder.events
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


def write_trace_csv(
    recorder: TraceRecorder,
    path: str | Path,
    block_names: Iterable[str] | None = None,
) -> int:
    """Write the retained samples as CSV; returns the row count.

    Events are not representable in a rectangular file and are omitted;
    use JSONL when the event stream matters.
    """
    path = Path(path)
    records = recorder.records()
    blocks = list(block_names) if block_names is not None else None
    if blocks is None and records and records[0].block_temps:
        blocks = [f"block{i}" for i in range(len(records[0].block_temps))]
    blocks = blocks or []
    scalar_fields = [
        "index",
        "cycle",
        "benchmark",
        "policy",
        "sensed",
        "max_temp",
        "chip_power",
        "ipc",
        "measurement",
        "error",
        "p_term",
        "i_term",
        "d_term",
        "pre_saturation",
        "post_saturation",
        "duty",
        "stall_cycles",
        "failsafe_state",
        "emergency_fraction",
        "stress_fraction",
    ]
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(scalar_fields + [f"temp_{name}" for name in blocks])
        for record in records:
            row = [getattr(record, field) for field in scalar_fields]
            temps = list(record.block_temps)
            if len(temps) < len(blocks):
                temps += [math.nan] * (len(blocks) - len(temps))
            writer.writerow(row + temps[: len(blocks)])
    return len(records)


def write_metrics_json(snapshot: dict, path: str | Path) -> None:
    """Write a telemetry/registry snapshot as pretty-printed JSON."""

    def clean(value):
        if isinstance(value, dict):
            return {key: clean(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(item) for item in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    Path(path).write_text(
        json.dumps(clean(snapshot), indent=2, sort_keys=True, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )


@dataclass
class TraceFile:
    """A parsed JSONL trace: header, samples, and events."""

    meta: dict
    records: list[TraceRecord]
    events: list[TraceEvent]


def read_trace_jsonl(path: str | Path) -> TraceFile:
    """Parse a trace written by :func:`write_trace_jsonl`."""
    path = Path(path)
    meta: dict = {}
    records: list[TraceRecord] = []
    events: list[TraceEvent] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as error:
                raise TelemetryError(
                    f"{path}:{line_number}: not valid JSON ({error})"
                ) from error
            kind = data.get("type")
            if kind == "meta":
                meta = data
            elif kind == "sample":
                records.append(record_from_dict(data))
            elif kind == "event":
                events.append(event_from_dict(data))
            else:
                raise TelemetryError(
                    f"{path}:{line_number}: unknown line type {kind!r}"
                )
    if not meta:
        raise TelemetryError(f"{path}: missing trace meta header")
    return TraceFile(meta=meta, records=records, events=events)
