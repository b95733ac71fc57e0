"""The saved-line encode: the trace's base64 spliced into the dump.

:meth:`~repro.sim.checkpoint.AppendLog.encode` dumps a saved outcome in
the writer's layout without its trace base64 and splices the string in
(:func:`~repro.sim.codec.encode_saved_line`), the write-side mirror of
:class:`~repro.sim.codec.SavedLineDecoder`.  Its bytes must be
``json.dumps``'s for every record: cache entries and journal lines with
a trace, without one, with an empty trace, with a block not in the
writer's layout or whose data ``json.dumps`` would escape, and with a
block head ahead of the trace's.  A committed line from a short run
pins the layout: encoding its decoded record reproduces it byte for
byte.

Regenerate the fixture only for a deliberate format change::

    PYTHONPATH=src python tests/test_saved_line_encode.py
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TelemetryConfig
from repro.sim import codec
from repro.sim.cache import ResultCache, cache_key
from repro.sim.checkpoint import AppendLog
from repro.sim.codec import SavedLineDecoder, json_default, telemetry_to_dict
from repro.sim.parallel import WorkSpec, _worker_telemetry_config
from repro.sim.sweep import run_one
from repro.telemetry.core import Telemetry
from repro.telemetry.trace import FLOAT_FIELDS, TraceRecord

FIXTURE_PATH = Path(__file__).with_name("saved_line.jsonl")

_FLOATS = st.one_of(
    st.sampled_from([math.nan, -0.0, math.inf, -math.inf, 5e-324]),
    st.floats(),
)
_TEXT = st.text(max_size=6)


def _plain(record) -> bytes:
    return (json.dumps(record, default=json_default) + "\n").encode("utf-8")


def _telemetry(floats, states) -> dict:
    """A writer-layout payload of one record per state."""
    local = Telemetry(TelemetryConfig(
        trace_capacity=max(2, len(states)), trace_mode="ring",
        profile=False, sample_latency=False,
    ))
    width = len(FLOAT_FIELDS) + 3
    for i, state in enumerate(states):
        values = [floats[(i * width + j) % len(floats)] for j in range(width)]
        local.trace.record(TraceRecord(
            index=i, cycle=1000 * (i + 1), benchmark="gcc", policy="pid",
            block_temps=tuple(values[len(FLOAT_FIELDS):]),
            stall_cycles=i % 3, failsafe_state=state,
            **dict(zip(FLOAT_FIELDS, values)),
        ))
    local.trace.event("probe", 0, "saved")
    local.metrics.counter("runs").inc()
    local.meta["run"] = 1
    return telemetry_to_dict(local)


@st.composite
def _payloads(draw):
    """A telemetry payload: the writer's, none, or a changed layout."""
    kind = draw(st.sampled_from([
        "trace", "trace", "empty", "none", "absent", "no-records",
        "reordered", "dtype", "shape", "odd-data", "not-a-string",
    ]))
    if kind in ("none", "absent"):
        return kind, None
    floats = draw(st.lists(_FLOATS, min_size=1, max_size=12))
    states = [] if kind == "empty" else draw(st.lists(
        st.sampled_from(["", "nominal", "failsafe"]), min_size=1, max_size=20
    ))
    payload = _telemetry(floats, states)
    block = payload["records"]["floats"]
    if kind == "no-records":
        payload["records"] = None
    elif kind == "reordered":
        payload["records"]["floats"] = dict(reversed(list(block.items())))
    elif kind == "dtype":
        block["dtype"] = ">f8"
    elif kind == "shape":
        block["shape"] = draw(st.sampled_from(
            [[1], [True, 2], [1.0, 2], [-1, 2], (1, 2)]
        ))
    elif kind == "odd-data":
        # Characters json.dumps escapes, and some it does not.
        at = draw(st.integers(0, len(block["data"])))
        odd = draw(st.text(min_size=1, max_size=3))
        block["data"] = block["data"][:at] + odd + block["data"][at:]
    elif kind == "not-a-string":
        block["data"] = draw(st.sampled_from([None, 7, ["AA=="]]))
    return kind, payload


def _record(line_type, kind, payload, result) -> dict:
    """A cache entry or a journal outcome around ``payload``."""
    record = {"type": line_type}
    if line_type == "entry":
        record["key"] = "0" * 24
    record.update(
        fingerprint="f" * 24, benchmark="gcc", policy="pid", seed=0,
        attempts=1, result=result,
    )
    if kind != "absent":
        record["telemetry"] = payload
    return record


_RESULTS = st.fixed_dictionaries({
    "cycles": st.integers(0, 10**9),
    "energy_joules": _FLOATS,
    "benchmark": _TEXT,
    "extra": st.dictionaries(_TEXT, _FLOATS, max_size=3),
})

#: A writer-layout block head the line holds ahead of the trace's own.
_DECOY = {"floats": {"dtype": "<f8", "shape": [1, 1], "data": ""}}


class TestEncodeEqualsJsonDumps:
    @settings(max_examples=150, deadline=None)
    @given(
        line_type=st.sampled_from(["entry", "outcome"]),
        drawn=_payloads(),
        result=_RESULTS,
    )
    def test_bytes_equal_json_dumps(self, line_type, drawn, result):
        record = _record(line_type, *drawn, result)
        line = AppendLog.encode(record)
        assert line == _plain(record)
        value = json.loads(line, cls=SavedLineDecoder)
        assert repr(value) == repr(json.loads(line))

    @settings(max_examples=50, deadline=None)
    @given(drawn=_payloads(), data=st.sampled_from(["", "AA==", "\\"]))
    def test_a_block_head_ahead_of_the_trace(self, drawn, data):
        # No splice lands on the decoy's data: the line is json.dumps's.
        decoy = {"floats": {**_DECOY["floats"], "data": data}}
        record = _record("entry", *drawn, {"cycles": 1, "extra": decoy})
        assert AppendLog.encode(record) == _plain(record)

    def test_a_writer_line_takes_the_splice(self, monkeypatch):
        record = _record(
            "entry", "trace", _telemetry([1.5, 2.5], ["", "nominal"]),
            {"cycles": 1},
        )
        assert codec._writer_data(record) is not None
        dumped = []
        real = json.dumps

        def spy(value, **kwargs):
            dumped.append(value["telemetry"]["records"]["floats"]["data"])
            return real(value, **kwargs)

        monkeypatch.setattr(codec.json, "dumps", spy)
        assert AppendLog.encode(record) == (real(
            record, default=json_default
        ) + "\n").encode()
        # The one dump the encode made left the base64 out.
        assert dumped == [""]

    def test_journal_lines_without_a_trace(self):
        for record in (
            {"type": "header", "schema": "repro.sweep/v2"},
            {"type": "touch", "key": "0" * 24},
            {"type": "counters", "hits": np.int64(3), "misses": 1},
        ):
            assert codec._writer_data(record) is None
            assert AppendLog.encode(record) == _plain(record)


def _fixture_line() -> bytes:
    """A cache entry line of one short recorded run, as the cache
    writes it."""
    spec = WorkSpec("gcc", "pid", instructions=60_000)
    local = Telemetry(_worker_telemetry_config(
        TelemetryConfig(sample_latency=False)
    ))
    result = run_one("gcc", "pid", instructions=60_000, telemetry=local)
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        cache.store(cache_key(spec), spec, result, local)
        lines = (Path(directory) / "cache.log").read_bytes().splitlines(True)
    [entry] = [line for line in lines if b'"type": "entry"' in line]
    return entry


class TestFixtureLine:
    def test_encoding_the_decoded_line_reproduces_it(self):
        line = FIXTURE_PATH.read_bytes()
        assert line.count(b"\n") == 1
        record = json.loads(line)
        assert codec._writer_data(record) is not None
        assert AppendLog.encode(record) == line

    def test_the_decoder_reads_the_line_as_json_loads(self):
        line = FIXTURE_PATH.read_bytes()
        value = json.loads(line, cls=SavedLineDecoder)
        assert repr(value) == repr(json.loads(line))

    def test_a_short_run_writes_the_fixture(self):
        assert _fixture_line() == FIXTURE_PATH.read_bytes()


if __name__ == "__main__":
    FIXTURE_PATH.write_bytes(_fixture_line())
