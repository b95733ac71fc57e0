"""The shared sweep codec: lossless JSON views of specs, results, telemetry.

Three subsystems move sweep state across a process boundary and must
agree byte-for-byte on what comes back:

* the crash-safe checkpoint journal (:mod:`repro.sim.checkpoint`)
  persists completed specs to disk and resumes them bit-identically;
* the distributed shard protocol (:mod:`repro.sim.distributed`) leases
  specs to workers over TCP and streams their results back;
* tests round-trip both paths against the in-process originals.

This module is that single agreement.  Every value codec here is
**repr-lossless for floats**: Python's ``json`` encodes floats with
``repr`` (shortest round-trip form) and parses them back to the exact
same IEEE-754 double, so a :class:`~repro.sim.results.RunResult`
survives ``loads(dumps(...))`` bit-exactly (property-tested).  NaN
rides along as the non-strict JSON ``NaN`` literal; both ends of every
channel are this library, so the extension is safe and symmetric.  A
worker's retained trace records are the bulk of every payload, so they
travel column-wise instead: the float fields and block temperatures as
one base64 little-endian float64 block (raw IEEE-754 bits, so NaN
payloads, ``-0.0`` and subnormals survive too), the int and string
fields as JSON lists.

The spec codec (:func:`spec_to_dict` / :func:`spec_from_dict`) is a
*tagged* encoding over a closed registry of types: the dataclasses,
enums, and plain config objects a :class:`~repro.sim.parallel.WorkSpec`
may carry, and nothing else.  Decoding never imports or constructs an
unregistered type, so a hostile or corrupt lease payload degrades to a
:class:`~repro.errors.CodecError`, not code execution.  A decoded spec
reconstructs through each type's ordinary constructor (validation
re-runs) and fingerprints identically to the original
(:func:`~repro.sim.checkpoint.spec_fingerprint` is content-addressed),
which is what lets the shard coordinator hand out fingerprints as lease
identities and verify them on the worker.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import enum
import json
import re

import numpy as np

from repro.errors import CodecError
from repro.sim.results import History, RunResult
from repro.telemetry.core import ensure_telemetry
from repro.telemetry.export import event_from_dict
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import (
    FLOAT_FIELDS,
    INT_FIELDS,
    TEXT_FIELDS,
    TraceBlock,
)

#: Tag key marking an encoded composite value; chosen to be absent from
#: every plain mapping the sweep types carry.
_TAG = "__repro__"

#: The closed type registry (name -> class), built lazily because
#: :class:`WorkSpec` lives in :mod:`repro.sim.parallel`, which imports
#: the checkpoint machinery (and therefore this module) at load time.
_TYPES: dict | None = None


def _registry() -> dict:
    global _TYPES
    if _TYPES is None:
        from repro.config import (
            BranchPredictorConfig,
            CacheConfig,
            DTMConfig,
            FailsafeConfig,
            MachineConfig,
            TelemetryConfig,
            ThermalConfig,
        )
        from repro.control.pid import AntiWindup
        from repro.faults import FaultSchedule, FaultWindow
        from repro.sim.parallel import WorkSpec
        from repro.thermal.floorplan import Block, Floorplan
        from repro.thermal.sensors import SensorConfig

        _TYPES = {
            cls.__name__: cls
            for cls in (
                AntiWindup,
                Block,
                BranchPredictorConfig,
                CacheConfig,
                DTMConfig,
                FailsafeConfig,
                FaultSchedule,
                FaultWindow,
                Floorplan,
                MachineConfig,
                SensorConfig,
                TelemetryConfig,
                ThermalConfig,
                WorkSpec,
            )
        }
    return _TYPES


def encode_value(value):
    """Encode one spec-carried value as tagged, JSON-serializable data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return {
            _TAG: "ndarray",
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "data": value.ravel().tolist(),
        }
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {
            _TAG: "dict",
            "items": [
                [encode_value(k), encode_value(v)] for k, v in value.items()
            ],
        }
    name = type(value).__name__
    if _registry().get(name) is not type(value):
        raise CodecError(
            f"cannot encode unregistered type {type(value).__qualname__!r}"
        )
    if isinstance(value, enum.Enum):
        return {_TAG: "enum", "type": name, "value": encode_value(value.value)}
    if dataclasses.is_dataclass(value):
        return {
            _TAG: "dataclass",
            "type": name,
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    # Registered plain classes (FaultSchedule): public attributes are,
    # by that registration contract, exactly the constructor keywords.
    return {
        _TAG: "object",
        "type": name,
        "fields": {
            attr: encode_value(v)
            for attr, v in vars(value).items()
            if not attr.startswith("_")
        },
    }


def decode_value(data):
    """Rebuild a value encoded by :func:`encode_value`.

    Only registry types are ever constructed; anything else raises
    :class:`~repro.errors.CodecError`.
    """
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [decode_value(v) for v in data]
    if not isinstance(data, dict):
        raise CodecError(f"cannot decode {type(data).__name__} value")
    tag = data.get(_TAG)
    if tag == "tuple":
        return tuple(decode_value(v) for v in data["items"])
    if tag == "dict":
        return {decode_value(k): decode_value(v) for k, v in data["items"]}
    if tag == "ndarray":
        return np.array(
            data["data"], dtype=np.dtype(data["dtype"])
        ).reshape(data["shape"])
    if tag in ("enum", "dataclass", "object"):
        cls = _registry().get(data.get("type"))
        if cls is None:
            raise CodecError(
                f"cannot decode unregistered type {data.get('type')!r}"
            )
        try:
            if tag == "enum":
                return cls(decode_value(data["value"]))
            fields = {
                str(name): decode_value(v)
                for name, v in data["fields"].items()
            }
            return cls(**fields)
        except CodecError:
            raise
        except Exception as error:
            raise CodecError(
                f"cannot rebuild {data.get('type')}: {error}"
            ) from error
    raise CodecError(f"cannot decode untagged mapping {sorted(data)!r}")


def spec_to_dict(spec) -> dict:
    """Tagged JSON view of one :class:`~repro.sim.parallel.WorkSpec`."""
    encoded = encode_value(spec)
    if not (isinstance(encoded, dict) and encoded.get("type") == "WorkSpec"):
        raise CodecError(f"spec_to_dict needs a WorkSpec, got {spec!r}")
    return encoded


def spec_from_dict(data: dict):
    """Rebuild the :class:`WorkSpec` saved by :func:`spec_to_dict`."""
    if not (isinstance(data, dict) and data.get("type") == "WorkSpec"):
        raise CodecError("spec payload is not an encoded WorkSpec")
    return decode_value(data)


# -- result (de)serialization -------------------------------------------------
def json_default(value):
    """``json.dumps(..., default=json_default)`` hook for numpy scalars.

    The append-logs (checkpoint journal, result cache) encode each
    payload in one ``json.dumps`` call with this hook.  ``np.float64``
    never reaches it: it subclasses ``float``, which the encoder
    already writes with ``float.__repr__``.  Other numpy scalars
    (``float32``, ``int64``, ``bool_``...) encode as their ``.item()``,
    so the bytes match a payload that held the Python scalar all along.
    """
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def history_to_dict(history: History) -> dict:
    """JSON view of a :class:`History` (arrays as nested lists + dtype)."""
    arrays = {}
    for name in (
        "max_temp",
        "duty",
        "chip_power",
        "block_temps",
        "block_powers",
        "block_emergency",
        "block_stress",
    ):
        array = getattr(history, name)
        arrays[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "data": array.ravel().tolist(),
        }
    return {
        "sample_cycles": history.sample_cycles,
        "names": list(history.names),
        "arrays": arrays,
    }


def history_from_dict(data: dict) -> History:
    """Rebuild a :class:`History` saved by :func:`history_to_dict`."""
    arrays = {
        name: np.array(spec["data"], dtype=np.dtype(spec["dtype"])).reshape(
            spec["shape"]
        )
        for name, spec in data["arrays"].items()
    }
    return History(
        sample_cycles=data["sample_cycles"],
        names=tuple(data["names"]),
        **arrays,
    )


def result_to_dict(result: RunResult) -> dict:
    """JSON view of a :class:`RunResult` (history included).

    Multicore results (from :class:`~repro.sim.parallel.WorkSpec`\\ s
    with ``core_benchmarks``) serialize under ``"kind": "multicore"``
    so journals can hold both result types side by side.
    """
    # Imported lazily: the codec is core sweep machinery; multicore is
    # an optional extension layered on top of it.
    from repro.multicore.results import MulticoreRunResult

    if isinstance(result, MulticoreRunResult):
        return {
            "kind": "multicore",
            "policy": result.policy,
            "coordinator": result.coordinator,
            "cycles": result.cycles,
            "cores": [dataclasses.asdict(core) for core in result.cores],
            "emergency_fraction": result.emergency_fraction,
            "stress_fraction": result.stress_fraction,
            "mean_chip_power": result.mean_chip_power,
            "max_chip_power": result.max_chip_power,
            "energy_joules": result.energy_joules,
            "extra": dict(result.extra),
        }
    return {
        "benchmark": result.benchmark,
        "policy": result.policy,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "emergency_fraction": result.emergency_fraction,
        "stress_fraction": result.stress_fraction,
        "block_emergency_fraction": dict(result.block_emergency_fraction),
        "block_stress_fraction": dict(result.block_stress_fraction),
        "mean_block_temperature": dict(result.mean_block_temperature),
        "max_block_temperature": dict(result.max_block_temperature),
        "mean_chip_power": result.mean_chip_power,
        "max_chip_power": result.max_chip_power,
        "energy_joules": result.energy_joules,
        "engaged_fraction": result.engaged_fraction,
        "interrupt_events": result.interrupt_events,
        "interrupt_stall_cycles": result.interrupt_stall_cycles,
        "history": (
            history_to_dict(result.history)
            if result.history is not None
            else None
        ),
        "extra": dict(result.extra),
    }


def result_from_dict(data: dict) -> RunResult:
    """Rebuild a result saved by :func:`result_to_dict`.

    Returns a :class:`RunResult`, or a
    :class:`~repro.multicore.results.MulticoreRunResult` for entries
    tagged ``"kind": "multicore"``.
    """
    if data.get("kind") == "multicore":
        from repro.multicore.results import CoreResult, MulticoreRunResult

        return MulticoreRunResult(
            policy=data["policy"],
            coordinator=data["coordinator"],
            cycles=data["cycles"],
            cores=tuple(
                CoreResult(**{**core, "extra": dict(core.get("extra", {}))})
                for core in data["cores"]
            ),
            emergency_fraction=data["emergency_fraction"],
            stress_fraction=data["stress_fraction"],
            mean_chip_power=data["mean_chip_power"],
            max_chip_power=data["max_chip_power"],
            energy_joules=data.get("energy_joules", 0.0),
            extra=dict(data.get("extra", {})),
        )
    history = data.get("history")
    return RunResult(
        benchmark=data["benchmark"],
        policy=data["policy"],
        cycles=data["cycles"],
        instructions=data["instructions"],
        emergency_fraction=data["emergency_fraction"],
        stress_fraction=data["stress_fraction"],
        block_emergency_fraction=dict(data["block_emergency_fraction"]),
        block_stress_fraction=dict(data["block_stress_fraction"]),
        mean_block_temperature=dict(data["mean_block_temperature"]),
        max_block_temperature=dict(data["max_block_temperature"]),
        mean_chip_power=data["mean_chip_power"],
        max_chip_power=data["max_chip_power"],
        energy_joules=data.get("energy_joules", 0.0),
        engaged_fraction=data.get("engaged_fraction", 0.0),
        interrupt_events=data.get("interrupt_events", 0),
        interrupt_stall_cycles=data.get("interrupt_stall_cycles", 0),
        history=history_from_dict(history) if history is not None else None,
        extra=dict(data.get("extra", {})),
    )


# -- telemetry (de)serialization ----------------------------------------------
#: The record fields saved as plain JSON lists, one value per record.
_LIST_FIELDS = (*INT_FIELDS, *TEXT_FIELDS)
#: The saved block's dtype: little-endian float64 on every host.
_BLOCK_DTYPE = "<f8"
_BASE64_ALPHABET = (
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)


def _is_base64_of(data, size: int) -> bool:
    """Whether ``data`` is padded base64 of exactly ``size`` bytes.

    The one scan of a saved block's characters: :meth:`SavedBlock.take`
    later decodes only the rows a sink keeps, so the alphabet is checked
    here, once per saved payload, not by the decoder.
    """
    padding = b"=" * (-size % 3)
    return (
        isinstance(data, str)
        and len(data) == 4 * -(-size // 3)
        and data.isascii()
        and data.encode("ascii").translate(None, _BASE64_ALPHABET)
        == padding
        and data.endswith(padding.decode("ascii"))
    )


def _int_columns(columns) -> np.ndarray:
    """``(rows, len(INT_FIELDS))`` int64 from the saved int lists."""
    count = len(columns[0])
    return np.array(columns, dtype=np.int64).T.reshape(count, len(columns))


class SavedBlock:
    """A checked saved trace block, decoded only where it is read.

    It offers what :meth:`~repro.telemetry.trace.TraceRecorder.record_many`
    uses of an incoming block, ``len()`` and :meth:`take`, so a sink's
    closed-form ring/decimate retention decodes exactly the rows it
    keeps.  The block holds the payload's own base64 string and JSON
    lists; nothing decoded is kept.
    """

    __slots__ = ("_count", "_width", "_data", "_ints", "_text")

    def __init__(self, count: int, width: int, data: str, ints, text) -> None:
        self._count = count
        self._width = width
        self._data = data
        self._ints = ints
        self._text = text

    def __len__(self) -> int:
        return self._count

    def take(self, rows) -> TraceBlock:
        """The :class:`TraceBlock` of ``rows`` (a slice or an index array)."""
        rows = np.arange(self._count)[rows]
        picks = rows.tolist()

        def pick(values: list) -> list:
            return [values[row] for row in picks]

        ints = _int_columns([pick(column) for column in self._ints])
        # fromiter stores each value as one object; assigning a list
        # would let numpy read a nested list as more rows.
        text = np.empty((len(rows), len(TEXT_FIELDS)), dtype=object)
        for position, column in enumerate(self._text):
            text[:, position] = np.fromiter(
                pick(column), dtype=object, count=len(rows)
            )
        return TraceBlock(self._floats(rows), ints, text)

    def _floats(self, rows: np.ndarray) -> np.ndarray:
        """Decode the float rows ``rows`` and only the characters they need.

        Base64 maps 3 bytes to 4 characters, so a row of ``8 * width``
        bytes starts on a character boundary when ``width % 3 == 0``;
        otherwise every group of 3 rows does, and the groups that hold
        ``rows`` are decoded whole.  Only the last group can be short
        (and padded); it is decoded from its first character to the end.
        """
        width = self._width
        per = 1 if width % 3 == 0 else 3
        span = 32 * width * per // 3
        groups, where = np.unique(rows // per, return_inverse=True)
        data = self._data
        encoded = "".join(
            [data[start:start + span] for start in (groups * span).tolist()]
        )
        floats = np.frombuffer(
            binascii.a2b_base64(encoded), dtype=_BLOCK_DTYPE
        ).reshape(-1, width)
        return floats[where * per + rows % per]


def _saved_block(columns) -> SavedBlock:
    """A saved trace block, checked structurally, as a :class:`SavedBlock`.

    Checks the widths, every list's length, that the int lists convert
    to int64 and that the data is base64 of exactly ``records * width *
    8`` bytes, without decoding it.  Raises
    :class:`~repro.errors.CodecError` on any mismatch.
    """
    if not isinstance(columns, dict):
        raise CodecError("saved trace records are not a column block")
    floats = columns.get("floats")
    if not isinstance(floats, dict) or floats.get("dtype") != _BLOCK_DTYPE:
        raise CodecError(f"saved trace block is not {_BLOCK_DTYPE} data")
    shape = floats.get("shape")
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(size) is int and size >= 0 for size in shape)
    ):
        raise CodecError(f"saved trace block has shape {shape!r}")
    count, width = shape
    blocks = columns.get("blocks")
    if (
        type(blocks) is not int
        or blocks < 0
        or width != len(FLOAT_FIELDS) + blocks
    ):
        raise CodecError(
            f"saved trace block is {width} columns wide; "
            f"{blocks!r} block temperatures need "
            f"{len(FLOAT_FIELDS)} + blocks"
        )
    for name in _LIST_FIELDS:
        values = columns.get(name)
        if not isinstance(values, list) or len(values) != count:
            raise CodecError(
                f"saved trace column {name!r} does not hold {count} values"
            )
    ints = [columns[name] for name in INT_FIELDS]
    try:
        _int_columns(ints)
    except (TypeError, ValueError, OverflowError) as error:
        raise CodecError(
            f"saved trace lists do not decode: {error}"
        ) from error
    data = floats.get("data")
    if not _is_base64_of(data, count * width * 8):
        raise CodecError(
            f"saved trace block data is not base64 of {count * width * 8} "
            f"bytes"
        )
    return SavedBlock(
        count, width, data, ints, [columns[name] for name in TEXT_FIELDS]
    )


def telemetry_to_dict(local) -> dict | None:
    """JSON view of one run's worker-local retain-everything telemetry.

    The retained records are saved column-wise (``"records"``): the
    float fields and block temperatures as one base64 float64 block,
    the int and string fields as lists.
    """
    if local is None:
        return None
    blocks = local.trace.blocks()
    if len({block.floats.shape[1] for block in blocks}) > 1:
        raise CodecError(
            "trace records carry different numbers of block temperatures"
        )
    block = TraceBlock.concatenate(blocks) if blocks else TraceBlock.empty()
    floats = block.floats.astype(_BLOCK_DTYPE, copy=False)
    columns = {
        "blocks": floats.shape[1] - len(FLOAT_FIELDS),
        "floats": {
            "dtype": _BLOCK_DTYPE,
            "shape": list(floats.shape),
            "data": base64.b64encode(floats.tobytes()).decode("ascii"),
        },
    }
    for fields, array in ((INT_FIELDS, block.ints), (TEXT_FIELDS, block.text)):
        for column, name in enumerate(fields):
            columns[name] = array[:, column].tolist()
    return {
        "records": columns,
        "events": [event.to_dict() for event in local.trace.events],
        "metrics": local.metrics.snapshot(),
        "meta": dict(local.meta),
    }


@dataclasses.dataclass(frozen=True, eq=False)
class SavedTelemetry:
    """One saved run's telemetry, checked once and ready to fold.

    Built only by :func:`check_saved_telemetry`.  ``payload`` is the
    wire form, which the journal and the cache store verbatim and whose
    events, metrics and meta the fold reads; ``block`` is its trace as a
    row-lazy :class:`SavedBlock` (``None`` when the payload has no
    records).
    """

    payload: dict
    block: SavedBlock | None


def check_saved_telemetry(payload) -> SavedTelemetry | None:
    """The one check of a saved run's telemetry payload.

    Returns the :class:`SavedTelemetry` the fold reads (``None`` for a
    ``None`` payload, a telemetry-less run), or raises
    :class:`~repro.errors.CodecError` for any shape the fold could not
    read.  The record block is checked structurally (widths, list
    lengths, the int lists, one scan of the base64 alphabet) without
    being decoded; events decode and metrics merge into a scratch
    registry, touching no sink.  Every reader of a saved payload runs
    it once: a cache hit before it counts, journal resume when the
    journal opens, and the shard coordinator on a worker's payload
    before journaling and caching it.  So a shape the fold cannot read
    never reaches the end-of-sweep fold, and the fold rescans nothing.
    """
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise CodecError(
            f"saved telemetry is a {type(payload).__name__}, not a mapping"
        )
    records = payload.get("records")
    block = None if records is None else _saved_block(records)
    try:
        for data in payload.get("events", ()):
            event_from_dict(data)
        MetricsRegistry().merge_snapshot(payload.get("metrics", {}))
        dict(payload.get("meta") or {})
    except Exception as error:
        raise CodecError(f"saved telemetry does not fold: {error!r}") from error
    return SavedTelemetry(payload, block)


def check_saved_outcome(entry: dict) -> SavedTelemetry | None:
    """Check one saved outcome (a journal line or a cache entry).

    Its ``result`` must decode and its ``telemetry`` must pass
    :func:`check_saved_telemetry`, whose checked payload is returned.
    Raises :class:`~repro.errors.CodecError` otherwise.
    """
    try:
        result_from_dict(entry["result"])
    except Exception as error:
        raise CodecError(f"saved result does not decode: {error!r}") from error
    return check_saved_telemetry(entry.get("telemetry"))


#: The head of a saved trace block's float data in the writer's layout
#: (``json.dumps`` of :func:`telemetry_to_dict`'s ``records``), up to the
#: opening quote of the base64 string.
_BLOCK_DATA = re.compile(
    r'"floats": \{"dtype": "<f8", "shape": \[[0-9]+, [0-9]+\], "data": "'
)


class SavedLineDecoder(json.JSONDecoder):
    """A JSON decoder for saved outcome lines that spares the trace's base64.

    The JSON scanner copies a string character by character, and a trace
    block's base64 is most of a saved line.  In the writer's layout that
    string is sliced out of the line instead: the rest is parsed, and
    the slice becomes ``telemetry.records.floats.data``.  A line in any
    other shape, or whose slice holds an escape or a non-ASCII
    character, takes the plain parse.  A value that passes
    :func:`check_saved_outcome` equals the plain parse's: what the slice
    can get wrong (raw control characters, which JSON forbids, or a
    hand-made line whose first block head is not its trace's) leaves
    trace data that the alphabet scan or the length check rejects.
    Use it as ``json.loads(line, cls=SavedLineDecoder)``.
    """

    def decode(self, s, *args):
        match = _BLOCK_DATA.search(s)
        if match is not None:
            start = match.end()
            end = s.find('"', start)
            data = s[start:end]
            if end >= 0 and data.isascii() and "\\" not in data:
                value = super().decode(s[:start] + s[end:], *args)
                try:
                    floats = value["telemetry"]["records"]["floats"]
                    spliced = floats["data"] == ""
                except (KeyError, TypeError):
                    spliced = False
                if spliced:
                    floats["data"] = data
                    return value
        return super().decode(s, *args)


#: The keys of a saved block's float data, in the writer's order.
_BLOCK_KEYS = ["dtype", "shape", "data"]


def _writer_data(record) -> bytes | None:
    """The trace base64 of a record in the writer's layout, as ASCII
    bytes, if it has one that ``json.dumps`` writes as it is; else
    ``None``.

    The layout is :func:`telemetry_to_dict`'s block head (``dtype``
    ``"<f8"``, a two-int ``shape``, then ``data``), which
    :data:`_BLOCK_DATA` matches once dumped.  ``json.dumps`` writes
    printable ASCII other than the quote and the backslash unescaped.
    """
    telemetry = record.get("telemetry")
    if type(telemetry) is not dict:
        return None
    records = telemetry.get("records")
    if type(records) is not dict:
        return None
    floats = records.get("floats")
    if type(floats) is not dict or list(floats) != _BLOCK_KEYS:
        return None
    shape, data = floats["shape"], floats["data"]
    if not (
        floats["dtype"] == _BLOCK_DTYPE
        and type(shape) is list
        and len(shape) == 2
        and all(type(size) is int and size >= 0 for size in shape)
        and type(data) is str
        and data
        and data.isascii()
    ):
        return None
    raw = data.encode("ascii")
    codes = np.frombuffer(raw, dtype=np.uint8)
    if codes.min() < 0x20 or codes.max() > 0x7E or b'"' in raw or b"\\" in raw:
        return None
    return raw


def encode_saved_line(record: dict) -> bytes:
    """``json.dumps(record, default=json_default)`` and a newline, as
    UTF-8, sparing the trace's base64: the write-side mirror of
    :class:`SavedLineDecoder`.

    ``json.dumps`` scans a string character by character for escapes,
    and a trace block's base64 is most of a saved line.  A record in the
    writer's layout is dumped with that string empty, and the string's
    bytes are spliced in where the one block head of the dumped line
    ends.  The bytes equal the plain dump's: the splice is taken only
    for a string ``json.dumps`` writes as it is, and only where the
    dumped line holds exactly one block head, which is then the
    record's own.  Any other record (a line with no trace, an empty
    trace, another layout) takes the plain dump after a few dict
    lookups.
    """
    data = _writer_data(record)
    if data is not None:
        telemetry = record["telemetry"]
        records = telemetry["records"]
        line = json.dumps(
            {
                **record,
                "telemetry": {
                    **telemetry,
                    "records": {
                        **records,
                        "floats": {**records["floats"], "data": ""},
                    },
                },
            },
            default=json_default,
        )
        match = _BLOCK_DATA.search(line)
        if match is not None:
            cut = match.end()
            if line.startswith('"', cut) and not _BLOCK_DATA.search(line, cut):
                return b"".join((
                    line[:cut].encode("utf-8"),
                    data,
                    line[cut:].encode("utf-8"),
                    b"\n",
                ))
    return (json.dumps(record, default=json_default) + "\n").encode("utf-8")


def fold_saved_telemetry(sink, saved) -> None:
    """Re-emit one saved run's telemetry onto a live sink.

    ``saved`` is what :func:`check_saved_telemetry` returned; a raw
    payload dict is checked first.  Mirrors
    :func:`~repro.telemetry.core.merge_telemetry` exactly: records and
    events re-emit through the sink's own retention policy, metrics fold
    under the registry's associative merge, meta updates.  The record
    block goes to the sink as one row-lazy block, so only the rows the
    sink retains are decoded.  No-op when the sink is disabled or there
    is no payload (the entry came from a telemetry-less sweep).
    Checkpoint resume, cache replay and the shard coordinator all fold
    through here, in spec order, which is what makes resumed, warm and
    distributed sweeps' retained traces bit-identical to an
    uninterrupted local one.
    """
    sink = ensure_telemetry(sink)
    if not sink.enabled or saved is None:
        return
    if not isinstance(saved, SavedTelemetry):
        saved = check_saved_telemetry(saved)
    if saved.block is not None:
        sink.trace.record_many(saved.block)
    payload = saved.payload
    for data in payload.get("events", ()):
        sink.trace.events.append(event_from_dict(data))
    sink.metrics.merge_snapshot(payload.get("metrics", {}))
    if payload.get("meta"):
        sink.meta.update(payload["meta"])
