"""The row-lazy fold of saved telemetry, against a full-decode oracle.

:func:`~repro.sim.codec.check_saved_telemetry` checks a saved payload
once and hands back a :class:`~repro.sim.codec.SavedBlock` whose
``take`` decodes only the rows a sink's retention keeps.  These tests
pin that the lazy fold leaves a sink bit-identical to the eager one it
replaced (every row decoded, then retained), and count what the lazy
path does on the hot-spec warm-cache workload: the base64 bytes it
decodes and how often it scans a payload's alphabet.  A cache hit's
line is parsed by :class:`~repro.sim.codec.SavedLineDecoder`, which
slices the base64 out instead of JSON-scanning it; it must give what
``json.loads`` gives.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TelemetryConfig
from repro.sim import codec
from repro.sim.cache import ResultCache, cache_key
from repro.errors import CodecError
from repro.sim.checkpoint import AppendLog
from repro.sim.codec import (
    SavedBlock,
    SavedLineDecoder,
    check_saved_telemetry,
    fold_saved_telemetry,
    telemetry_to_dict,
)
from repro.sim.parallel import SweepOptions, WorkSpec, run_specs
from repro.telemetry.core import Telemetry
from repro.telemetry.export import event_from_dict
from repro.telemetry.trace import (
    FLOAT_FIELDS,
    INT_FIELDS,
    TEXT_FIELDS,
    TraceBlock,
    TraceRecord,
)

#: NaN payloads and sign, signed zero, infinities and subnormals: the
#: doubles a decode must carry bit for bit.
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
]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())

#: Widths 19, 20 and 21: one of each ``8 * width % 3`` class, so rows
#: start on a base64 character boundary alone (21) or in groups of 3.
_BLOCKS = st.sampled_from([19 - len(FLOAT_FIELDS), 20 - len(FLOAT_FIELDS),
                           21 - len(FLOAT_FIELDS)])


def _config(mode: str, capacity: int) -> TelemetryConfig:
    return TelemetryConfig(
        trace_capacity=capacity,
        trace_mode=mode,
        profile=False,
        sample_latency=False,
    )


def _payload(records, start: int) -> dict:
    """One run's wire payload: ``records``, an event and some metrics."""
    local = Telemetry(_config("ring", max(2, len(records))))
    for record in records:
        local.trace.record(record)
    local.trace.event("probe", start, "saved", run=start)
    local.metrics.counter("runs").inc()
    local.metrics.histogram("temp", [0.0, 50.0, 100.0]).observe(
        float(len(records))
    )
    local.meta["run"] = start
    return json.loads(json.dumps(telemetry_to_dict(local)))


def _records(pool, states, blocks: int, start: int) -> list[TraceRecord]:
    """One record per state; the float fields cycle through ``pool``."""
    width = len(FLOAT_FIELDS) + blocks
    records = []
    for i, state in enumerate(states):
        values = tuple(pool[(i * width + j) % len(pool)] for j in range(width))
        records.append(TraceRecord(
            index=start + i,
            cycle=1000 * (start + i + 1),
            benchmark="gcc",
            policy="pid",
            block_temps=values[len(FLOAT_FIELDS):],
            stall_cycles=i % 5,
            failsafe_state=state,
            **dict(zip(FLOAT_FIELDS, values)),
        ))
    return records


def _run(blocks: int, count: int, start: int):
    """``count`` records with ``blocks`` block temperatures each.

    One pool of at most 24 drawn floats fills every float field, so a
    run costs one small draw however many fields it has.
    """
    return st.tuples(
        st.lists(_FLOATS, min_size=1, max_size=24),
        st.lists(st.sampled_from(["", "nominal", "failsafe"]),
                 min_size=count, max_size=count),
    ).map(lambda drawn: _records(*drawn, blocks, start))


def _eager_fold(sink: Telemetry, payload: dict) -> None:
    """The oracle: decode every row, then let the sink retain some."""
    columns = payload["records"]
    count, width = columns["floats"]["shape"]
    floats = np.frombuffer(
        base64.b64decode(columns["floats"]["data"]), dtype="<f8"
    ).reshape(count, width)
    ints = np.array(
        [columns[name] for name in INT_FIELDS], dtype=np.int64
    ).T.reshape(count, len(INT_FIELDS))
    text = np.empty((count, len(TEXT_FIELDS)), dtype=object)
    for column, name in enumerate(TEXT_FIELDS):
        text[:, column] = columns[name]
    sink.trace.record_many(TraceBlock(floats, ints, text))
    for data in payload["events"]:
        sink.trace.events.append(event_from_dict(data))
    sink.metrics.merge_snapshot(payload["metrics"])
    sink.meta.update(payload["meta"])


def _assert_same_sink(lazy: Telemetry, eager: Telemetry) -> None:
    assert lazy.trace.emitted == eager.trace.emitted
    assert lazy.trace.stride == eager.trace.stride
    lazy_blocks, eager_blocks = lazy.trace.blocks(), eager.trace.blocks()
    assert [len(b) for b in lazy_blocks] == [len(b) for b in eager_blocks]
    for mine, theirs in zip(lazy_blocks, eager_blocks):
        assert mine.floats.dtype == theirs.floats.dtype
        assert mine.floats.tobytes() == theirs.floats.tobytes()
        assert mine.ints.dtype == theirs.ints.dtype
        assert np.array_equal(mine.ints, theirs.ints)
        assert mine.text.tolist() == theirs.text.tolist()
    assert repr(lazy.trace.records()) == repr(eager.trace.records())
    assert repr(list(lazy.trace.events)) == repr(list(eager.trace.events))
    assert repr(lazy.metrics.snapshot()) == repr(eager.metrics.snapshot())
    assert lazy.meta == eager.meta


class TestLazyFoldEqualsEagerFold:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        mode=st.sampled_from(["ring", "decimate"]),
        capacity=st.integers(2, 50),
        blocks=_BLOCKS,
        sizes=st.lists(st.integers(0, 60), min_size=1, max_size=5),
    )
    def test_sink_is_bit_identical(self, data, mode, capacity, blocks, sizes):
        lazy = Telemetry(_config(mode, capacity))
        eager = Telemetry(_config(mode, capacity))
        start = 0
        for size in sizes:
            payload = _payload(data.draw(_run(blocks, size, start)), start)
            start += size
            fold_saved_telemetry(lazy, check_saved_telemetry(payload))
            _eager_fold(eager, payload)
            _assert_same_sink(lazy, eager)

    @pytest.mark.parametrize("blocks", [5, 6, 7])
    def test_empty_payload(self, blocks):
        payload = _payload([], 0)
        payload["records"]["blocks"] = blocks
        payload["records"]["floats"]["shape"] = [0, len(FLOAT_FIELDS) + blocks]
        saved = check_saved_telemetry(payload)
        assert len(saved.block) == 0
        lazy, eager = Telemetry(_config("decimate", 4)), Telemetry(
            _config("decimate", 4)
        )
        fold_saved_telemetry(lazy, saved)
        _eager_fold(eager, payload)
        _assert_same_sink(lazy, eager)
        assert lazy.trace.emitted == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), blocks=_BLOCKS, count=st.integers(1, 40))
    def test_take_of_any_rows_matches_the_full_decode(
        self, data, blocks, count
    ):
        payload = _payload(data.draw(_run(blocks, count, 0)), 0)
        rows = np.array(
            data.draw(st.lists(st.integers(0, count - 1), max_size=2 * count)),
            dtype=np.int64,
        )
        block = check_saved_telemetry(payload).block
        assert isinstance(block, SavedBlock)
        full = np.frombuffer(
            base64.b64decode(payload["records"]["floats"]["data"]),
            dtype="<f8",
        ).reshape(count, -1)
        taken = block.take(rows)
        assert taken.floats.tobytes() == full[rows].tobytes()
        assert taken.ints[:, 0].tolist() == rows.tolist()
        assert taken.text[:, 0].tolist() == ["gcc"] * len(rows)


# -- the saved-line parse -----------------------------------------------------
def _line(payload, result=None) -> bytes:
    """A saved outcome line in the writer's layout."""
    return AppendLog.encode({
        "type": "entry",
        "key": "0" * 24,
        "result": {"cycles": 1, "extra": {}} if result is None else result,
        "telemetry": payload,
    })


def _parses_alike(raw) -> dict:
    """``raw`` through the saved-line decoder, checked against json.loads."""
    value = json.loads(raw, cls=SavedLineDecoder)
    assert repr(value) == repr(json.loads(raw))
    return value


class TestSavedLineDecoder:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), blocks=_BLOCKS, count=st.integers(0, 30))
    def test_writer_lines_parse_as_json_loads(self, data, blocks, count):
        payload = _payload(data.draw(_run(blocks, count, 0)), 0)
        _parses_alike(_line(payload))

    @pytest.mark.parametrize("records", [False, True])
    def test_lines_without_a_block_parse_as_json_loads(self, records):
        payload = _payload([], 0) if records else None
        if records:
            payload["records"] = None
        _parses_alike(_line(payload))

    @pytest.mark.parametrize("spelling", [
        pytest.param(b'"data": "\\u0041', id="escape"),
        pytest.param('"data": "\u00e9'.encode(), id="non-ascii"),
    ])
    def test_data_the_slice_cannot_hold_takes_the_plain_parse(self, spelling):
        payload = _payload(_records([1.5], ["", ""], 7, 0), 0)
        raw = _line(payload).replace(b'"data": "', spelling, 1)
        assert _parses_alike(raw)["telemetry"]["records"]["floats"][
            "data"
        ] != payload["records"]["floats"]["data"]

    def test_a_block_head_ahead_of_the_trace_takes_the_plain_parse(self):
        payload = _payload(_records([1.5], ["", ""], 7, 0), 0)
        decoy = {"floats": {"dtype": "<f8", "shape": [1, 1], "data": "AA=="}}
        _parses_alike(_line(payload, {"cycles": 1, "extra": decoy}))

    def test_a_misread_line_is_one_the_check_rejects(self):
        # A hand-made line: a block head ahead of an empty trace.  The
        # slice is the decoy's data, so the trace fails its length check.
        payload = _payload([], 0)
        decoy = {"floats": {"dtype": "<f8", "shape": [1, 1], "data": "AA=="}}
        raw = _line(payload, {"cycles": 1, "extra": decoy})
        check_saved_telemetry(json.loads(raw)["telemetry"])
        with pytest.raises(CodecError):
            check_saved_telemetry(
                json.loads(raw, cls=SavedLineDecoder)["telemetry"]
            )


# -- what the lazy path does on the hot-spec warm-cache workload --------------
#: The benchmark's hot specs: the 8 hottest Table 11 benchmarks under
#: every policy column, at the experiment drivers' quick budget.
_HOT = [
    WorkSpec(benchmark=benchmark, policy=policy, instructions=1_500_000)
    for benchmark in ("gcc", "equake", "fma3d", "perlbmk", "mesa", "art",
                      "parser", "bzip2")
    for policy in ("none", "toggle1", "toggle2", "m", "p", "pd", "pi", "pid")
]


@pytest.fixture(scope="module")
def hot_cache(tmp_path_factory):
    directory = tmp_path_factory.mktemp("hot-cache")
    run_specs(_HOT, jobs=2, batch=8, cache=str(directory),
              telemetry=Telemetry())
    return directory


class _CountingBase64:
    """Stand-in for :mod:`binascii` in the codec, counting decoded input."""

    def __init__(self):
        self.chars = 0

    def a2b_base64(self, data):
        self.chars += len(data)
        return __import__("binascii").a2b_base64(data)


class TestHotWorkloadCounters:
    def test_default_sink_decodes_a_fifth_of_the_base64_at_most(
        self, hot_cache, monkeypatch
    ):
        store = ResultCache(hot_cache)
        saved = [
            store.lookup(cache_key(spec), need_telemetry=True)["saved"]
            for spec in _HOT
        ]
        store.close()
        total = sum(
            len(s.payload["records"]["floats"]["data"]) for s in saved
        )
        counting = _CountingBase64()
        monkeypatch.setattr(
            codec, "binascii", types.SimpleNamespace(
                a2b_base64=counting.a2b_base64
            )
        )
        sink = Telemetry()
        for payload in saved:
            fold_saved_telemetry(sink, payload)
        assert sink.trace.mode == "decimate" and sink.trace.capacity == 4096
        assert len(sink.trace) <= 4096
        assert 0 < counting.chars <= 0.2 * total

    def test_each_payload_is_scanned_once_per_sweep(
        self, hot_cache, tmp_path, monkeypatch
    ):
        scans = []
        scan = codec._is_base64_of

        def counting(data, size):
            scans.append(data)
            return scan(data, size)

        monkeypatch.setattr(codec, "_is_base64_of", counting)
        # A warm sweep: every spec a cache hit, journaled as it replays.
        journal = tmp_path / "sweep.jsonl"
        run_specs(
            _HOT, cache=str(hot_cache), telemetry=Telemetry(),
            options=SweepOptions(checkpoint_path=journal),
        )
        assert len(scans) == len(_HOT)
        assert len(set(map(id, scans))) == len(_HOT)
        # A journal resume: each journaled payload scanned when it opens.
        scans.clear()
        run_specs(
            _HOT[:8], cache=False, telemetry=Telemetry(),
            options=SweepOptions(checkpoint_path=journal, resume=True),
        )
        assert len(scans) == len(_HOT)


class _Recording(SavedLineDecoder):
    """The saved-line decoder, noting the length of each text it parses."""

    parsed: list[int] = []

    def raw_decode(self, s, idx=0):
        self.parsed.append(len(s))
        return super().raw_decode(s, idx)


def test_hot_cache_lines_parse_as_json_loads_sparing_the_data(hot_cache):
    with open(hot_cache / "cache.log", "rb") as handle:
        lines = [raw for _, raw in AppendLog.lines(handle)]
    assert len(lines) > len(_HOT)
    for raw in lines:
        value = _parses_alike(raw)
        _Recording.parsed.clear()
        json.loads(raw, cls=_Recording)
        records = (value.get("telemetry") or {}).get("records")
        spared = len(records["floats"]["data"]) if records else 0
        assert _Recording.parsed == [len(raw) - spared]
