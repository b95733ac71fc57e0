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
import itertools
import operator

import numpy as np

from repro.errors import CodecError
from repro.sim.results import History, RunResult
from repro.telemetry.core import ensure_telemetry
from repro.telemetry.export import event_from_dict
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import TraceRecord

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
#: :class:`~repro.telemetry.trace.TraceRecord`'s float fields, in the
#: column order of a saved trace block (the dataclass's field order);
#: the record's block temperatures follow them.
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
    "emergency_fraction",
    "stress_fraction",
)
#: The record fields saved as plain JSON lists, one value per record.
_LIST_FIELDS = (
    "index",
    "cycle",
    "stall_cycles",
    "benchmark",
    "policy",
    "failsafe_state",
)
#: The saved block's dtype: little-endian float64 on every host.
_BLOCK_DTYPE = "<f8"
_BASE64_ALPHABET = (
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)
_float_row = operator.attrgetter(*_FLOAT_FIELDS)


def _records_to_columns(records: list) -> dict:
    """One run's retained records as a packed float block plus lists.

    Every record must carry the run's block count, and every float
    field a ``float`` (``np.float64`` included): an int would come back
    as a float, so it is refused rather than silently changed.
    """
    blocks = len(records[0].block_temps) if records else 0
    rows = []
    for record in records:
        temps = tuple(record.block_temps)
        if len(temps) != blocks:
            raise CodecError(
                f"trace record {record.index} has {len(temps)} block "
                f"temperatures; the run's first record has {blocks}"
            )
        rows.append(_float_row(record) + temps)
    odd = {
        kind.__name__
        for kind in set(map(type, itertools.chain.from_iterable(rows)))
        if not issubclass(kind, float)
    }
    if odd:
        raise CodecError(
            f"trace float fields must hold floats, got {sorted(odd)}"
        )
    shape = [len(records), len(_FLOAT_FIELDS) + blocks]
    block = np.array(rows, dtype=_BLOCK_DTYPE).reshape(shape)
    columns = {
        "blocks": blocks,
        "floats": {
            "dtype": _BLOCK_DTYPE,
            "shape": shape,
            "data": base64.b64encode(block.tobytes()).decode("ascii"),
        },
    }
    for name in _LIST_FIELDS:
        columns[name] = [getattr(record, name) for record in records]
    return columns


def _block_shape(columns) -> tuple[int, int]:
    """``(records, width)`` of a saved trace block, checked structurally.

    Checks the widths, every list's length and that the data is base64
    of exactly ``records * width * 8`` bytes, without decoding it.
    Raises :class:`~repro.errors.CodecError` on any mismatch.
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
        or width != len(_FLOAT_FIELDS) + blocks
    ):
        raise CodecError(
            f"saved trace block is {width} columns wide; "
            f"{blocks!r} block temperatures need "
            f"{len(_FLOAT_FIELDS)} + blocks"
        )
    for name in _LIST_FIELDS:
        values = columns.get(name)
        if not isinstance(values, list) or len(values) != count:
            raise CodecError(
                f"saved trace column {name!r} does not hold {count} values"
            )
    data = floats.get("data")
    size = count * width * 8
    padding = b"=" * (-size % 3)
    if not (
        isinstance(data, str)
        and len(data) == 4 * -(-size // 3)
        and data.isascii()
        and data.encode("ascii").translate(None, _BASE64_ALPHABET)
        == padding
        and data.endswith(padding.decode("ascii"))
    ):
        raise CodecError(
            f"saved trace block data is not base64 of {size} bytes"
        )
    return count, width


def telemetry_to_dict(local) -> dict | None:
    """JSON view of one run's worker-local retain-everything telemetry.

    The retained records are saved column-wise (``"records"``): the
    float fields and block temperatures as one base64 float64 block,
    the int and string fields as lists.
    """
    if local is None:
        return None
    return {
        "records": _records_to_columns(local.trace.records()),
        "events": [event.to_dict() for event in local.trace.events],
        "metrics": local.metrics.snapshot(),
        "meta": dict(local.meta),
    }


def _fold_records(trace, columns) -> None:
    """Emit a saved block onto ``trace``, building only kept records."""
    count, width = _block_shape(columns)
    block = np.frombuffer(
        binascii.a2b_base64(columns["floats"]["data"]), dtype=_BLOCK_DTYPE
    ).reshape(count, width)
    index, cycle, stall, benchmark, policy, failsafe = (
        columns[name] for name in _LIST_FIELDS
    )
    scalars = len(_FLOAT_FIELDS)

    def build(i: int) -> TraceRecord:
        row = block[i].tolist()
        # Positional (a third of the keyword cost): the float columns
        # are TraceRecord's field order with the other fields taken out.
        return TraceRecord(
            index[i],
            cycle[i],
            benchmark[i],
            policy[i],
            *row[:2],
            tuple(row[scalars:]),
            *row[2:12],
            stall[i],
            failsafe[i],
            *row[12:scalars],
        )

    trace.record_many(count, build)


def fold_saved_telemetry(sink, payload: dict | None) -> None:
    """Re-emit one saved run's telemetry onto a live sink.

    Mirrors :func:`~repro.telemetry.core.merge_telemetry` exactly:
    records and events re-emit through the sink's own retention policy,
    metrics fold under the registry's associative merge, meta updates.
    The record block is decoded once, and only the records the sink's
    retention keeps are built.  No-op when the sink is disabled or the
    payload is empty (the entry came from a telemetry-less sweep).
    Both the checkpoint resume path and the shard coordinator fold
    through here, in spec order, which is what makes resumed and
    distributed sweeps' retained traces bit-identical to an
    uninterrupted local one.
    """
    sink = ensure_telemetry(sink)
    if not sink.enabled or payload is None:
        return
    if payload.get("records") is not None:
        _fold_records(sink.trace, payload["records"])
    for data in payload.get("events", ()):
        sink.trace.events.append(event_from_dict(data))
    sink.metrics.merge_snapshot(payload.get("metrics", {}))
    if payload.get("meta"):
        sink.meta.update(payload["meta"])


def check_saved_telemetry(payload) -> None:
    """Raise :class:`~repro.errors.CodecError` unless the fold can read it.

    The record block is checked structurally (widths, list lengths, the
    base64 length) without being decoded; events decode and metrics
    merge into a scratch registry, touching no sink.  The shard
    coordinator runs it on a worker's payload before journaling and
    caching it, and a cache hit runs it before it counts, so a shape
    the fold cannot read never reaches the end-of-sweep fold.
    """
    if payload is None:
        return
    if not isinstance(payload, dict):
        raise CodecError(
            f"saved telemetry is a {type(payload).__name__}, not a mapping"
        )
    if payload.get("records") is not None:
        _block_shape(payload["records"])
    try:
        for data in payload.get("events", ()):
            event_from_dict(data)
        MetricsRegistry().merge_snapshot(payload.get("metrics", {}))
        dict(payload.get("meta") or {})
    except Exception as error:
        raise CodecError(f"saved telemetry does not fold: {error!r}") from error
