"""The columnar trace payload: bit-exact round trip, strict encode,
structural check, and fold parity with ``merge_telemetry``.

A saved run's retained records travel as one base64 little-endian
float64 block (the 14 float fields, then the block temperatures) plus
JSON lists for the int and string fields.  These properties pin what
the journal, the shard wire and the result cache all rely on.
"""

from __future__ import annotations

import base64
import copy
import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TelemetryConfig
from repro.errors import CodecError
from repro.sim.codec import (
    check_saved_telemetry,
    fold_saved_telemetry,
    telemetry_to_dict,
)
from repro.sim.parallel import _run_task, matrix_specs
from repro.telemetry.core import Telemetry, merge_telemetry
from repro.telemetry.trace import TraceRecord

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

#: Doubles the JSON float path could not carry bit-exactly, or that
#: sit on an encoding edge: NaN payloads and sign, signed zero,
#: infinities, the smallest subnormal and the largest finite.
_EDGE_FLOATS = [
    math.nan,
    -math.nan,
    struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_BEEF))[0],
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    5e-324,
    -2.225073858507201e-308,
    1.7976931348623157e308,
]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_INTS = st.integers(-(2**62), 2**62)
_TEXT = st.text(max_size=6)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _records(width: int):
    """Runs of records that all carry ``width`` block temperatures."""
    record = st.builds(
        TraceRecord,
        index=_INTS,
        cycle=_INTS,
        benchmark=_TEXT,
        policy=_TEXT,
        block_temps=st.lists(
            _FLOATS, min_size=width, max_size=width
        ).map(tuple),
        stall_cycles=_INTS,
        failsafe_state=_TEXT,
        **{name: _FLOATS for name in _FLOAT_FIELDS},
    )
    return st.lists(record, max_size=40)


def _local(records) -> Telemetry:
    """A retain-everything run-local sink holding ``records``."""
    local = Telemetry(
        TelemetryConfig(
            trace_capacity=max(2, len(records)),
            trace_mode="ring",
            profile=False,
            sample_latency=False,
        )
    )
    for record in records:
        local.trace.record(record)
    local.meta["blocks"] = ["a", "b"]
    return local


def _sink(mode: str = "ring", capacity: int = 4096) -> Telemetry:
    return Telemetry(
        TelemetryConfig(
            trace_capacity=capacity,
            trace_mode=mode,
            profile=False,
            sample_latency=False,
        )
    )


def _wire(payload):
    """What every channel does to a payload: one JSON round trip."""
    return json.loads(json.dumps(payload))


def _assert_bit_identical(left: TraceRecord, right: TraceRecord) -> None:
    for name in left.__dataclass_fields__:
        a, b = getattr(left, name), getattr(right, name)
        if name in _FLOAT_FIELDS:
            assert type(b) is float, name
            assert _bits(a) == _bits(b), name
        elif name == "block_temps":
            assert type(b) is tuple
            assert [_bits(t) for t in a] == [_bits(t) for t in b]
            assert all(type(t) is float for t in b)
        else:
            assert type(b) is type(a), name
            assert a == b, name


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        width=st.sampled_from([0, 7, 16]),
    )
    def test_records_round_trip_bit_exact(self, data, width):
        records = data.draw(_records(width))
        payload = _wire(telemetry_to_dict(_local(records)))
        check_saved_telemetry(payload)
        sink = _sink(capacity=max(2, len(records)))
        fold_saved_telemetry(sink, payload)
        folded = sink.trace.records()
        assert len(folded) == len(records)
        for original, rebuilt in zip(records, folded):
            _assert_bit_identical(original, rebuilt)

    def test_empty_run_is_a_zero_row_block(self):
        payload = _wire(telemetry_to_dict(_local([])))
        block = payload["records"]
        assert block["floats"]["shape"] == [0, len(_FLOAT_FIELDS)]
        assert block["floats"]["data"] == ""
        check_saved_telemetry(payload)
        sink = _sink()
        fold_saved_telemetry(sink, payload)
        assert sink.trace.records() == []
        assert sink.trace.emitted == 0

    def test_block_is_little_endian_float64(self):
        record = TraceRecord(index=0, cycle=1000, sensed=1.5,
                             block_temps=(2.0, -0.0))
        block = telemetry_to_dict(_local([record]))["records"]
        assert block["floats"]["dtype"] == "<f8"
        assert block["floats"]["shape"] == [1, len(_FLOAT_FIELDS) + 2]
        raw = base64.b64decode(block["floats"]["data"])
        assert raw[:8] == struct.pack("<d", 1.5)
        assert raw[-16:] == struct.pack("<dd", 2.0, -0.0)


class TestStrictEncode:
    def test_ragged_block_temperatures_raise(self):
        records = [
            TraceRecord(index=0, cycle=1, block_temps=(1.0, 2.0)),
            TraceRecord(index=1, cycle=2, block_temps=(1.0,)),
        ]
        with pytest.raises(CodecError, match="block"):
            telemetry_to_dict(_local(records))

    @pytest.mark.parametrize("name", [*_FLOAT_FIELDS, "block_temps"])
    @pytest.mark.parametrize("value", [1, True, "1.0", None])
    def test_non_float_field_raises(self, name, value):
        record = TraceRecord(index=0, cycle=1, block_temps=(1.0,))
        setattr(
            record, name, (value,) if name == "block_temps" else value
        )
        with pytest.raises(CodecError, match="float"):
            telemetry_to_dict(_local([record]))


def _payload(count: int = 2, width: int = 2) -> dict:
    """A written payload; its 256-byte block needs two ``=`` of padding."""
    records = [
        TraceRecord(
            index=i,
            cycle=1000 * (i + 1),
            benchmark="gcc",
            policy="pid",
            block_temps=tuple(float(i + b) for b in range(width)),
        )
        for i in range(count)
    ]
    return _wire(telemetry_to_dict(_local(records)))


def _damaged(mutate) -> dict:
    payload = _payload()
    mutate(payload["records"])
    return payload


_DAMAGE = {
    "records-not-a-block": lambda block: block.clear() or block.update(
        {"bogus": 1}
    ),
    "width-without-blocks": lambda block: block.__setitem__("blocks", 3),
    "negative-blocks": lambda block: block.__setitem__("blocks", -1),
    "shape-not-2d": lambda block: block["floats"].__setitem__(
        "shape", [3]
    ),
    "shape-float": lambda block: block["floats"].__setitem__(
        "shape", [3.0, 16]
    ),
    "wrong-dtype": lambda block: block["floats"].__setitem__("dtype", "<f4"),
    "short-index": lambda block: block["index"].pop(),
    "long-policy": lambda block: block["policy"].append("pid"),
    "missing-cycle": lambda block: block.pop("cycle"),
    "stall-not-list": lambda block: block.__setitem__("stall_cycles", 0),
    "not-base64": lambda block: block["floats"].__setitem__(
        "data", "!" * len(block["floats"]["data"])
    ),
    "non-ascii": lambda block: block["floats"].__setitem__(
        "data", "é" * len(block["floats"]["data"])
    ),
    "short-data": lambda block: block["floats"].__setitem__(
        "data", block["floats"]["data"][:-4]
    ),
    "extra-row": lambda block: block["floats"].__setitem__(
        "data",
        base64.b64encode(
            base64.b64decode(block["floats"]["data"]) + bytes(8 * 16)
        ).decode("ascii"),
    ),
    "bad-padding": lambda block: block["floats"].__setitem__(
        "data", block["floats"]["data"].rstrip("=") + "A" * (
            len(block["floats"]["data"])
            - len(block["floats"]["data"].rstrip("="))
        )
    ),
    "data-not-str": lambda block: block["floats"].__setitem__("data", 7),
}


class TestCheck:
    def test_written_payload_passes(self):
        check_saved_telemetry(_payload())
        check_saved_telemetry(None)

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_damaged_block_is_a_codec_error(self, damage):
        payload = _damaged(_DAMAGE[damage])
        assert payload != _payload()
        with pytest.raises(CodecError):
            check_saved_telemetry(payload)
        # The fold refuses it the same way, before touching the sink.
        sink = _sink()
        with pytest.raises(CodecError):
            fold_saved_telemetry(sink, payload)
        assert sink.trace.emitted == 0

    @settings(max_examples=200, deadline=None)
    @given(
        path=st.sampled_from(
            ["blocks", "index", "cycle", "stall_cycles", "benchmark",
             "policy", "failsafe_state", "floats", "floats.shape",
             "floats.data", "floats.dtype"]
        ),
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-3, 40),
            st.floats(allow_nan=False),
            st.text(max_size=8),
            st.lists(st.integers(0, 20), max_size=4),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        ),
    )
    def test_any_field_damage_raises_only_codec_errors(self, path, value):
        payload = _payload()
        target = payload["records"]
        *parents, leaf = path.split(".")
        for parent in parents:
            target = target[parent]
        target[leaf] = value
        try:
            check_saved_telemetry(payload)
        except CodecError:
            return
        # Accepted damage must still fold without error.
        fold_saved_telemetry(_sink(), payload)

    @pytest.mark.parametrize(
        "payload",
        [
            ["not", "a", "dict"],
            {"records": [1]},
            {"records": [{"bogus": 1}]},
            {"events": [{"kind": "probe"}]},
            {"metrics": {"m": {"kind": "counter"}}},
        ],
    )
    def test_malformed_payloads_are_codec_errors(self, payload):
        with pytest.raises(CodecError):
            check_saved_telemetry(payload)


def _run_local(policy: str) -> Telemetry:
    [spec] = matrix_specs(["gcc"], [policy], instructions=150_000)
    [(_, _, local)] = _run_task(
        [spec], TelemetryConfig(sample_latency=False, profile=False)
    )
    return local


@pytest.fixture(scope="module")
def live_runs():
    return [_run_local("pid"), _run_local("toggle1")]


def _assert_sinks_identical(left: Telemetry, right: Telemetry) -> None:
    assert left.trace.emitted == right.trace.emitted
    assert left.trace.stride == right.trace.stride
    assert repr(left.trace.records()) == repr(right.trace.records())
    assert repr(list(left.trace.events)) == repr(list(right.trace.events))
    assert left.metrics.snapshot() == right.metrics.snapshot()
    assert left.meta == right.meta


class TestFoldParity:
    @settings(max_examples=20, deadline=None)
    @given(
        mode=st.sampled_from(["ring", "decimate"]),
        capacity=st.integers(2, 700),
        order=st.permutations([0, 1, 0, 1]),
    )
    def test_fold_equals_merge_of_the_live_run(
        self, live_runs, mode, capacity, order
    ):
        merged, folded = _sink(mode, capacity), _sink(mode, capacity)
        for which in order:
            local = live_runs[which]
            merge_telemetry(merged, local)
            fold_saved_telemetry(
                folded, _wire(telemetry_to_dict(copy.deepcopy(local)))
            )
        _assert_sinks_identical(merged, folded)
