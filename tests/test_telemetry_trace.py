"""Trace retention: ring wraparound, decimation determinism, events."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TelemetryError
from repro.telemetry import EventLog, TraceEvent, TraceRecord, TraceRecorder


def _record(index: int) -> TraceRecord:
    return TraceRecord(index=index, cycle=1000 * (index + 1))


def _fill(recorder: TraceRecorder, count: int) -> None:
    for index in range(count):
        recorder.record(_record(index))


class TestRingMode:
    def test_keeps_last_capacity_records(self):
        recorder = TraceRecorder(capacity=8, mode="ring")
        _fill(recorder, 20)
        kept = [record.index for record in recorder.records()]
        assert kept == list(range(12, 20))

    def test_wraparound_preserves_emit_order(self):
        recorder = TraceRecorder(capacity=4, mode="ring")
        _fill(recorder, 7)  # head mid-buffer
        kept = [record.index for record in recorder.records()]
        assert kept == sorted(kept) == [3, 4, 5, 6]

    def test_under_capacity_keeps_everything(self):
        recorder = TraceRecorder(capacity=100, mode="ring")
        _fill(recorder, 5)
        assert len(recorder) == 5
        assert recorder.emitted == 5


class TestDecimateMode:
    def test_never_exceeds_capacity(self):
        recorder = TraceRecorder(capacity=16, mode="decimate")
        _fill(recorder, 1000)
        assert len(recorder) <= 16
        assert recorder.emitted == 1000

    def test_retains_whole_run_span(self):
        recorder = TraceRecorder(capacity=16, mode="decimate")
        _fill(recorder, 1000)
        kept = [record.index for record in recorder.records()]
        assert kept[0] == 0  # the run start survives every compaction
        # The tail is within one stride of the end.
        assert kept[-1] >= 1000 - recorder.stride

    def test_stride_doubles_and_indices_align(self):
        recorder = TraceRecorder(capacity=8, mode="decimate")
        _fill(recorder, 100)
        stride = recorder.stride
        assert stride >= 100 // 8
        assert stride & (stride - 1) == 0  # power of two
        assert all(r.index % stride == 0 for r in recorder.records())

    @given(count=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_determinism_pure_function_of_emit_sequence(self, count):
        """Two identical emit sequences retain identical records."""
        one = TraceRecorder(capacity=32, mode="decimate")
        two = TraceRecorder(capacity=32, mode="decimate")
        _fill(one, count)
        _fill(two, count)
        assert [r.index for r in one.records()] == [
            r.index for r in two.records()
        ]
        assert one.stride == two.stride

    @given(count=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_retained_indices_monotone_and_bounded(self, count):
        recorder = TraceRecorder(capacity=32, mode="decimate")
        _fill(recorder, count)
        kept = [record.index for record in recorder.records()]
        assert kept == sorted(set(kept))
        assert len(kept) <= 32


class TestEvents:
    def test_events_survive_decimation(self):
        """Discrete events are never dropped by sample retention."""
        recorder = TraceRecorder(capacity=4, mode="decimate")
        for index in range(500):
            recorder.record(_record(index))
            if index % 50 == 0:
                recorder.event("fault", index, "spike")
        assert len(recorder) <= 4
        assert len(recorder.events) == 10

    def test_event_log_bounded_with_drop_count(self):
        log = EventLog(capacity=3)
        for index in range(5):
            log.append(TraceEvent("fault", index))
        assert len(log) == 3
        assert log.dropped == 2

    def test_of_kind_filters(self):
        log = EventLog()
        log.append(TraceEvent("fault", 0))
        log.append(TraceEvent("failsafe_transition", 1))
        assert len(log.of_kind("fault")) == 1

    def test_clear_restarts_retention(self):
        recorder = TraceRecorder(capacity=8, mode="decimate")
        _fill(recorder, 100)
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.stride == 1
        assert recorder.emitted == 0


class TestValidation:
    def test_capacity_floor(self):
        with pytest.raises(TelemetryError):
            TraceRecorder(capacity=1)

    def test_unknown_mode(self):
        with pytest.raises(TelemetryError):
            TraceRecorder(mode="reservoir")

    def test_event_log_capacity_positive(self):
        with pytest.raises(TelemetryError):
            EventLog(0)


class TestRecordMany:
    """``record_many`` is ``count`` calls of ``record`` that build only
    the records retention keeps on arrival."""

    @settings(max_examples=150, deadline=None)
    @given(
        mode=st.sampled_from(["ring", "decimate"]),
        capacity=st.integers(2, 64),
        batches=st.lists(st.integers(0, 300), max_size=8),
    )
    def test_matches_per_record_emission(self, mode, capacity, batches):
        single = TraceRecorder(capacity=capacity, mode=mode)
        batched = TraceRecorder(capacity=capacity, mode=mode)
        start = 0
        for count in batches:
            built = []

            def build(i, start=start):
                built.append(i)
                return _record(start + i)

            # The slot each record would take, from a per-record twin
            # observed before the batch runs.
            kept_on_arrival = []
            for i in range(count):
                before = single.emitted
                single.record(_record(start + i))
                assert single.emitted == before + 1
                retained = single._records
                if any(r is not None and r.index == start + i
                       for r in retained):
                    kept_on_arrival.append(i)
            batched.record_many(count, build)
            if mode == "ring":
                assert built == [
                    i for i in kept_on_arrival if i >= count - capacity
                ]
            else:
                assert built == kept_on_arrival
            assert batched.emitted == single.emitted
            assert batched.stride == single.stride
            assert batched._head == single._head
            assert [r.index for r in batched.records()] == [
                r.index for r in single.records()
            ]
            start += count

    @pytest.mark.parametrize("capacity", [2, 5, 8])
    def test_ring_builds_only_the_last_capacity(self, capacity):
        recorder = TraceRecorder(capacity=capacity, mode="ring")
        _fill(recorder, 3)
        built = []
        recorder.record_many(
            20, lambda i: built.append(i) or _record(100 + i)
        )
        assert built == list(range(20 - capacity, 20))
        assert [r.index for r in recorder.records()] == [
            100 + i for i in range(20 - capacity, 20)
        ]

    def test_decimate_builds_only_ordinals_on_the_stride(self):
        recorder = TraceRecorder(capacity=8, mode="decimate")
        _fill(recorder, 40)
        stride = recorder.stride
        built = []
        recorder.record_many(
            16, lambda i: built.append(40 + i) or _record(40 + i)
        )
        assert built and all(ordinal % stride == 0 for ordinal in built)
