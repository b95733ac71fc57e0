"""The columnar trace recorder and the bulk metric updates.

* Retention is a closed form of the emit count.  It must keep exactly
  the records the classic per-record rule keeps; that rule is kept here
  as the oracle (:class:`_PerRecordRule`).
* ``observe_many`` / ``set_many`` / ``inc(n)`` must leave a metric
  exactly as the per-value calls would, bit for bit, and
  :meth:`~repro.telemetry.core.Telemetry.record_block` must leave the
  trace and the metrics as per-sample ``record_sample`` calls do.
* Recorders and run-local sinks pickle: the process pool ships lane
  locals back to the parent.
* The CSV export sizes its temperature columns from the widest row.
"""

from __future__ import annotations

import csv
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TelemetryConfig
from repro.sim.parallel import _run_task, matrix_specs
from repro.telemetry import (
    DUTY_EDGES,
    TEMPERATURE_EDGES,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    write_trace_csv,
)
from repro.telemetry.trace import (
    COLUMN,
    FLOAT_FIELDS,
    INT_FIELDS,
    ROW_BATCH,
    TEXT_FIELDS,
    TraceBlock,
    TraceRecorder,
    decimation_stride,
)


class _PerRecordRule:
    """The per-record retention rule the closed form replaced.

    ``ring`` overwrites the oldest slot once full; ``decimate`` keeps
    emit ordinals on the stride and, when full, drops every other
    retained record and doubles the stride.
    """

    def __init__(self, capacity: int, mode: str) -> None:
        self.capacity = capacity
        self.mode = mode
        self.clear()

    def clear(self) -> None:
        self.kept: list = []
        self.head = 0
        self.stride = 1
        self.emitted = 0

    def record(self, item) -> None:
        ordinal = self.emitted
        self.emitted += 1
        if self.mode == "ring":
            if len(self.kept) < self.capacity:
                self.kept.append(item)
            else:
                self.kept[self.head] = item
                self.head = (self.head + 1) % self.capacity
            return
        if ordinal % self.stride:
            return
        if len(self.kept) >= self.capacity:
            self.kept = self.kept[::2]
            self.stride *= 2
            if ordinal % self.stride:
                return
        self.kept.append(item)

    def retained(self) -> list:
        return self.kept[self.head:] + self.kept[: self.head]


def _block(first: int, count: int, blocks: int) -> TraceBlock:
    """``count`` distinguishable rows, ``blocks`` temperatures wide."""
    rng = np.random.default_rng(first)
    floats = rng.normal(size=(count, len(FLOAT_FIELDS) + blocks))
    ints = np.empty((count, len(INT_FIELDS)), dtype=np.int64)
    ints[:, 0] = np.arange(first, first + count)
    ints[:, 1] = ints[:, 0] * 1000
    ints[:, 2] = ints[:, 0] % 7
    text = np.empty((count, len(TEXT_FIELDS)), dtype=object)
    text[:] = ["gcc", "pid", "nominal"]
    text[::3, 2] = "degraded"
    return TraceBlock(floats, ints, text)


_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.integers(1, 600),
            st.sampled_from([0, 4, 7]),
            st.booleans(),
            st.booleans(),
        ),
        st.just("clear"),
    ),
    min_size=1,
    max_size=8,
)


class TestClosedFormRetention:
    @settings(max_examples=120, deadline=None)
    @given(
        mode=st.sampled_from(["ring", "decimate"]),
        capacity=st.integers(2, 41),
        steps=_STEPS,
    )
    def test_matches_the_per_record_rule(self, mode, capacity, steps):
        """Blocks (and records gathered by ``record``) retain what the
        per-record rule retains.  Reads flush gathered records, so the
        retained rows are compared after some steps and at the end."""
        recorder = TraceRecorder(capacity=capacity, mode=mode)
        oracle = _PerRecordRule(capacity, mode)
        first = 0
        for step in steps:
            if step == "clear":
                recorder.clear()
                oracle.clear()
                continue
            count, blocks, one_at_a_time, read = step
            block = _block(first, count, blocks)
            first += count
            if one_at_a_time:
                for record in block.records():
                    recorder.record(record)
            else:
                recorder.record_many(block)
            for record in block.records():
                oracle.record(record)
            assert recorder.emitted == oracle.emitted
            assert recorder.stride == oracle.stride
            if read:
                assert len(recorder) == len(oracle.kept)
                assert repr(recorder.records()) == repr(oracle.retained())
        assert len(recorder) == len(oracle.kept)
        assert repr(recorder.records()) == repr(oracle.retained())

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(2, 39), emitted=st.integers(0, 2999))
    def test_stride_is_the_smallest_power_of_two_that_fits(
        self, capacity, emitted
    ):
        stride = decimation_stride(emitted, capacity)
        assert stride & (stride - 1) == 0
        assert math.ceil(emitted / stride) <= capacity
        assert stride == 1 or math.ceil(emitted / (stride // 2)) > capacity

    @pytest.mark.parametrize("mode", ["ring", "decimate"])
    def test_records_gather_into_blocks(self, mode):
        """``record`` forms one block per ROW_BATCH records, not one per
        record, and a width change starts a new one."""
        recorder = TraceRecorder(capacity=1 << 20, mode=mode)
        for record in _block(0, ROW_BATCH + 10, 2).records():
            recorder.record(record)
        for record in _block(ROW_BATCH + 10, 5, 3).records():
            recorder.record(record)
        assert [len(block) for block in recorder.blocks()] == [
            ROW_BATCH, 10, 5
        ]


#: Values on every edge a metric update can trip over.
_EDGE_VALUES = [
    *TEMPERATURE_EDGES[:4],
    *DUTY_EDGES[:3],
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    5e-324,
]
_VALUES = st.lists(
    st.one_of(
        st.sampled_from(_EDGE_VALUES),
        st.floats(-200.0, 200.0),
        st.floats(),
    ),
    max_size=60,
)
_CUTS = st.lists(st.integers(0, 60), max_size=4)


def _chunks(values: list, cuts: list) -> list[np.ndarray]:
    bounds = sorted({0, len(values), *[min(c, len(values)) for c in cuts]})
    return [
        np.array(values[a:b], dtype=float) for a, b in zip(bounds, bounds[1:])
    ]


def _dump(snapshot) -> str:
    """Bit-exact text: ``-0.0`` and ``0.0`` differ, NaN equals NaN, and
    a numpy scalar differs from the Python float the per-sample path
    stores."""
    return repr(snapshot)


class TestBulkMetrics:
    @settings(max_examples=200, deadline=None)
    @given(values=_VALUES, cuts=_CUTS)
    def test_observe_many_equals_observe(self, values, cuts):
        one, many = Histogram("h", DUTY_EDGES), Histogram("h", DUTY_EDGES)
        for value in values:
            one.observe(value)
        for chunk in _chunks(values, cuts):
            many.observe_many(chunk)
        assert _dump(many.snapshot()) == _dump(one.snapshot())

    @settings(max_examples=200, deadline=None)
    @given(
        values=_VALUES, cuts=_CUTS, prefer=st.sampled_from(["max", "min"])
    )
    def test_set_many_equals_set(self, values, cuts, prefer):
        one, many = Gauge("g", prefer), Gauge("g", prefer)
        for value in values:
            one.set(value)
        for chunk in _chunks(values, cuts):
            many.set_many(chunk)
        assert _dump(many.snapshot()) == _dump(one.snapshot())

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(_EDGE_VALUES),
                st.sampled_from(_EDGE_VALUES),
                st.sampled_from([0.0, -0.0, 1e-9, math.nan, 0.5]),
                st.sampled_from([0.0, 2e-6, math.nan, math.inf]),
            ),
            max_size=40,
        ),
        cuts=_CUTS,
        mode=st.sampled_from(["ring", "decimate"]),
    )
    def test_record_block_equals_record_sample(self, rows, cuts, mode):
        """A chunk through ``record_block`` leaves the trace and every
        metric as the same samples through ``record_sample`` do (its
        per-value updates; NaN latencies are skipped, not counted)."""
        config = TelemetryConfig(trace_capacity=8, trace_mode=mode)
        one, many = Telemetry(config), Telemetry(config)
        for telemetry in (one, many):
            telemetry.set_context("gcc", "pid")
        temps = (101.0, 99.5)
        for i, (temp, duty, fraction, latency) in enumerate(rows):
            one.record_control(i, measurement=temp, stall_cycles=i % 3,
                               failsafe_state="nominal")
            one.record_sample(
                i, 1000 * (i + 1), temp, temp, temps, duty, 0.5, duty,
                emergency_fraction=fraction, stress_fraction=fraction,
                latency_seconds=latency,
            )
        bounds = sorted({0, len(rows), *[min(c, len(rows)) for c in cuts]})
        for a, b in zip(bounds, bounds[1:]):
            chunk = rows[a:b]
            floats = np.full((len(chunk), len(FLOAT_FIELDS) + 2), math.nan)
            for name, column in (
                ("sensed", 0),
                ("max_temp", 0),
                ("measurement", 0),
                ("chip_power", 1),
                ("duty", 1),
                ("emergency_fraction", 2),
                ("stress_fraction", 2),
            ):
                floats[:, COLUMN[name]] = [row[column] for row in chunk]
            floats[:, COLUMN["ipc"]] = 0.5
            floats[:, len(FLOAT_FIELDS):] = temps
            index = np.arange(a, b)
            many.record_block(
                floats,
                np.column_stack((index, 1000 * (index + 1), index % 3)),
                ["nominal"] * len(chunk),
                np.array([row[3] for row in chunk], dtype=float),
            )
        assert repr(many.trace.records()) == repr(one.trace.records())
        assert (many.trace.emitted, many.trace.stride) == (
            one.trace.emitted,
            one.trace.stride,
        )
        assert _dump(many.metrics.snapshot()) == _dump(one.metrics.snapshot())

    def test_counter_inc_by_count_equals_repeated_inc(self):
        registry = MetricsRegistry()
        one, many = registry.counter("a"), registry.counter("b")
        for _ in range(1000):
            one.inc()
        many.inc(600)
        many.inc(0)
        many.inc(400)
        assert _dump(one.snapshot()) == _dump(many.snapshot())


class TestPickling:
    @pytest.mark.parametrize("mode", ["ring", "decimate"])
    def test_recorder_round_trips(self, mode):
        recorder = TraceRecorder(capacity=20, mode=mode)
        recorder.record_many(_block(0, 50, 7))
        recorder.record_many(_block(50, 3, 4))
        recorder.event("fault", 3, "spike", channel="sensor.spike")
        copy = pickle.loads(pickle.dumps(recorder))
        assert repr(copy.records()) == repr(recorder.records())
        assert (copy.emitted, copy.stride, len(copy)) == (
            recorder.emitted,
            recorder.stride,
            len(recorder),
        )
        assert repr(list(copy.events)) == repr(list(recorder.events))
        # The copy keeps retaining under the same closed form.
        copy.record_many(_block(53, 9, 7))
        recorder.record_many(_block(53, 9, 7))
        assert repr(copy.records()) == repr(recorder.records())

    def test_lane_local_round_trips(self):
        [spec] = matrix_specs(["gcc"], ["pid"], instructions=150_000)
        [(_, _, local)] = _run_task(
            [spec], TelemetryConfig(sample_latency=False, profile=False)
        )
        copy = pickle.loads(pickle.dumps(local))
        assert repr(copy.trace.records()) == repr(local.trace.records())
        assert copy.metrics.snapshot() == local.metrics.snapshot()


class TestCsvWidths:
    @pytest.mark.parametrize("order", ["single-first", "multicore-first"])
    def test_widest_row_sizes_the_columns(self, tmp_path, order):
        single, multicore = _block(0, 1, 7), _block(1, 1, 4)
        recorder = TraceRecorder(capacity=8, mode="ring")
        for block in (
            (single, multicore) if order == "single-first"
            else (multicore, single)
        ):
            recorder.record_many(block)
        path = tmp_path / "trace.csv"
        assert write_trace_csv(recorder, path) == 2
        with path.open(newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        temps = [name for name in header if name.startswith("temp_")]
        assert temps == [f"temp_block{i}" for i in range(7)]
        by_index = {int(row[0]): row[len(header) - 7:] for row in rows}
        assert [float(t) for t in by_index[0]] == single.floats[
            0, len(FLOAT_FIELDS):
        ].tolist()
        wide = [float(t) for t in by_index[1]]
        assert wide[:4] == multicore.floats[0, len(FLOAT_FIELDS):].tolist()
        assert all(math.isnan(t) for t in wide[4:])

    def test_names_past_the_given_ones_are_positional(self, tmp_path):
        recorder = TraceRecorder(capacity=8, mode="ring")
        recorder.record_many(_block(0, 1, 4))
        recorder.record_many(_block(1, 1, 7))
        path = tmp_path / "trace.csv"
        write_trace_csv(recorder, path, block_names=["c0", "c1", "c2", "c3"])
        header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
        assert header[-7:] == [
            "temp_c0", "temp_c1", "temp_c2", "temp_c3",
            "temp_block4", "temp_block5", "temp_block6",
        ]
