"""One sweep executor: fail-fast mode, sink sharing, shard-worker crashes.

:func:`~repro.sim.parallel.run_specs`, :func:`~repro.sim.parallel
.run_outcomes` and the shard worker's :func:`~repro.sim.parallel
.execute_payloads` all run on the same ``_OutcomeRunner``.  These tests
pin what each entry point keeps of its own contract on that executor:

* ``run_specs`` is fail-fast -- the earliest failing spec's own
  exception propagates, nothing after it runs at ``jobs=1``, and with a
  cache every spec that completed before it replays on the next sweep;
* only an in-process, unbatched, uncached fail-fast sweep records
  straight into the caller's sink (per-run ``engine.run`` spans
  included); batched and cached sweeps fold run-local telemetry;
* a crashing spec is one ``"crash"`` payload of ``execute_payloads``
  and never takes the calling shard worker down.
"""

from __future__ import annotations

import multiprocessing
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.parallel as parallel_module
from repro.errors import SweepError
from repro.sim.parallel import (
    WorkSpec,
    execute_payloads,
    matrix_specs,
    run_outcomes,
    run_specs,
)
from repro.sim.sweep import _validate_instructions
from repro.telemetry.core import Telemetry
from tests.test_sim_parallel import assert_results_equal
from tests.test_sim_resilience import _injected_execute, _spec

requires_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault injection relies on workers inheriting the "
    "monkeypatched _execute via fork",
)

INSTRUCTIONS = 30_000

#: A budget every engine rejects up front, in both the scalar and the
#: lane kernel, with the same exception.
BAD_INSTRUCTIONS = -5

_reference: list = []


def _specs():
    return matrix_specs(
        ["gcc", "gzip"], ["none", "pid"], instructions=INSTRUCTIONS
    )


def _reference_results():
    if not _reference:
        _reference.extend(run_outcomes(_specs(), jobs=1))
    return [outcome.result for outcome in _reference]


def _expected_failure() -> Exception:
    try:
        _validate_instructions(BAD_INSTRUCTIONS)
    except Exception as error:
        return error
    raise AssertionError("the bad budget was accepted")


class TestFailFastParity:
    @settings(max_examples=16, deadline=None)
    @given(
        failing=st.integers(min_value=0, max_value=3),
        jobs=st.sampled_from([1, 2]),
        batch=st.sampled_from([1, 4]),
        cached=st.booleans(),
    )
    def test_earliest_failure_raises_its_own_exception(
        self, failing, jobs, batch, cached
    ):
        specs = _specs()
        specs[failing] = WorkSpec(
            benchmark=specs[failing].benchmark,
            policy=specs[failing].policy,
            instructions=BAD_INSTRUCTIONS,
        )
        expected = _expected_failure()
        executed: list[WorkSpec] = []
        real_execute = parallel_module._execute

        def counting_execute(spec, telemetry):
            executed.append(spec)
            return real_execute(spec, telemetry)

        with tempfile.TemporaryDirectory() as scratch, \
                pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel_module, "_execute", counting_execute)
            cache = f"{scratch}/cache" if cached else False
            with pytest.raises(type(expected)) as excinfo:
                run_specs(specs, jobs=jobs, batch=batch, cache=cache)
            assert str(excinfo.value) == str(expected)
            if jobs == 1 and batch == 1:
                assert executed == specs[: failing + 1]
            if cached:
                replay = run_outcomes(
                    specs[:failing], jobs=1, batch=1, cache=cache
                )
                assert all(outcome.from_cache for outcome in replay)
                for outcome, reference in zip(replay, _reference_results()):
                    assert_results_equal(outcome.result, reference)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_pooled_failure_keeps_the_worker_traceback(self, batch):
        """A failure raised from a worker, by a lone spec or by one lane
        of a group, is the spec's own exception with the worker's
        traceback text as its ``__cause__``."""
        specs = _specs()[:2]
        specs[1] = WorkSpec(
            benchmark=specs[1].benchmark,
            policy=specs[1].policy,
            instructions=BAD_INSTRUCTIONS,
        )
        expected = _expected_failure()
        with pytest.raises(type(expected)) as excinfo:
            run_specs(specs, jobs=2, batch=batch, cache=False)
        assert str(excinfo.value) == str(expected)
        cause = str(excinfo.value.__cause__)
        assert "Traceback (most recent call last)" in cause
        assert "in _validate_instructions" in cause


class TestSinkSharing:
    @pytest.mark.parametrize("mode", ["plain", "batch", "cache"])
    def test_only_a_plain_serial_sweep_shares_the_sink(self, tmp_path, mode):
        specs = _specs()
        sink = Telemetry()  # profiling on
        extra = {
            "plain": {},
            "batch": {"batch": 4},
            "cache": {"cache": str(tmp_path / "cache")},
        }[mode]
        results = run_specs(specs, jobs=1, telemetry=sink, **extra)
        if mode == "plain":
            assert sink.profiler.stats("engine.run").count == len(specs)
        else:
            assert "engine.run" not in sink.profiler.names()
        for result, reference in zip(results, _reference_results()):
            assert_results_equal(result, reference)


@pytest.fixture
def inject_faults(monkeypatch):
    monkeypatch.setattr(parallel_module, "_execute", _injected_execute)


def _send_payload_kinds(connection) -> None:
    payloads = execute_payloads(
        [_spec("gcc"), _spec("__crash__"), _spec("gzip")], jobs=2
    )
    connection.send([payload[0] for payload in payloads])
    connection.close()


@requires_fork
class TestCrashAttribution:
    def test_shard_worker_survives_a_crashing_spec(self, inject_faults):
        """Run in a child process standing in for a shard worker: the
        crasher must be charged as a crash payload, not re-run in the
        worker's own process (which it would kill)."""
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_send_payload_kinds, args=(sender,))
        child.start()
        sender.close()
        try:
            child.join(timeout=120)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
        assert receiver.recv() == ["ok", "crash", "ok"]

    def test_fail_fast_crash_raises_sweep_error_naming_the_spec(
        self, inject_faults
    ):
        specs = [_spec("gcc"), _spec("__crash__"), _spec("gzip")]
        with pytest.raises(SweepError, match="__crash__") as excinfo:
            run_specs(specs, jobs=2)
        [failure] = excinfo.value.failures
        assert failure.error.kind == "crash"
        assert failure.index == 1

    def test_fail_fast_runs_no_retries(self, inject_faults, tmp_path):
        marker = str(tmp_path / "flaky")
        with pytest.raises(RuntimeError, match="flaky attempt 0"):
            run_specs([_spec("__flaky__", tag=(marker, 1))], jobs=2)
        with open(marker) as handle:
            assert handle.read() == "1"
