"""One settlement ledger under every sweep backend.

The local executor (serial, pooled, lane-batched) and the shard
coordinator settle outcomes through the same
:class:`~repro.sim.ledger.SweepLedger`, so on one spec matrix with one
pre-seeded checkpoint journal and result cache they must agree on
everything settlement decides: which specs resumed and which replayed
from the cache, the ``cache.hit`` counts, the journal lines written,
and the folded sink (orchestration events aside).  Also pinned here:

* the one replay rule -- a saved entry without telemetry does not
  replay into an enabled sink, from the journal or the cache, so a
  resumed sweep keeps an uninterrupted sweep's trace;
* journal damage -- a resumed entry whose trace block or result would
  not replay raises ``CheckpointError`` naming its line when the
  journal opens, before any spec runs;
* the fail-fast fold cut-off;
* a shard worker's malformed request changes nothing: its lease
  requeues and the sweep completes.
"""

from __future__ import annotations

import json
import shutil
import threading

import pytest

from repro.config import TelemetryConfig
from repro.errors import CheckpointError
from repro.sim.cache import ResultCache
from repro.sim.codec import result_to_dict
from repro.sim.distributed import ShardCoordinator
from repro.sim.ledger import SweepLedger
from repro.sim.parallel import SweepOptions, matrix_specs, run_outcomes
from repro.telemetry.core import Telemetry
from tests.test_sim_cache import assert_telemetry_identical
from tests.test_sim_distributed import _cluster, _RawClient, _start_worker

INSTRUCTIONS = 60_000

#: Index 0 is only in the seeded journal, 2 in both (the journal must
#: win), 1 and 3 only in the seeded cache; 4 and 5 run.
JOURNALED = (0, 2)
CACHED = (1, 2, 3)


def _specs():
    return matrix_specs(
        ["gcc", "gzip"], ["none", "toggle1", "pid"],
        instructions=INSTRUCTIONS,
    )


def _quiet() -> Telemetry:
    return Telemetry(TelemetryConfig(sample_latency=False, profile=False))


def _wait(coordinator: ShardCoordinator, timeout: float = 60.0):
    """``coordinator.wait()``, but a hang fails instead of blocking."""
    box: dict = {}

    def target():
        try:
            box["outcomes"] = coordinator.wait()
        except BaseException as error:  # re-raised in the test thread
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        coordinator.request_stop()
        thread.join(timeout)
        pytest.fail(f"coordinator did not settle within {timeout}s")
    if "error" in box:
        raise box["error"]
    return box["outcomes"]


def _serve(specs, telemetry, options=None, cache=None):
    """Serve ``specs`` from a localhost coordinator to one thread worker."""
    coordinator = ShardCoordinator(
        specs, _cluster(), options=options, telemetry=telemetry, cache=cache
    )
    coordinator.start()
    # A fully replayed sweep leases nothing: no worker to wait out.
    worker = None if coordinator.complete else _start_worker(coordinator.port)
    try:
        return _wait(coordinator)
    finally:
        coordinator.request_stop()
        if worker is not None:
            worker.join(timeout=60)


def _local(jobs, batch=None):
    def run(specs, telemetry, options=None, cache=None):
        return run_outcomes(
            specs, jobs=jobs, batch=batch, telemetry=telemetry,
            options=options, cache=cache,
        )

    return run


BACKENDS = {
    "serial": _local(1),
    "jobs2-batch4": _local(2, batch=4),
    "cluster": _serve,
}


# -- cross-backend settlement parity ------------------------------------------
_seed: dict = {}


def _seeded(root):
    """The uninterrupted reference, plus a seeded journal and cache."""
    if not _seed:
        specs = _specs()
        reference_sink = _quiet()
        reference = run_outcomes(specs, telemetry=reference_sink)
        journal = root / "seed.jsonl"
        run_outcomes(
            [specs[i] for i in JOURNALED],
            telemetry=_quiet(),
            options=SweepOptions(checkpoint_path=journal),
        )
        store = ResultCache(root / "seed-cache")
        run_outcomes(
            [specs[i] for i in CACHED], telemetry=_quiet(), cache=store
        )
        store.close()
        _seed.update(
            specs=specs,
            reference=reference,
            reference_sink=reference_sink,
            journal=journal,
            cache=root / "seed-cache",
        )
    return _seed


def _settle_on(backend, seed, workdir):
    """Resume the seeded sweep on ``backend`` from private copies."""
    journal = workdir / "sweep.jsonl"
    shutil.copyfile(seed["journal"], journal)
    shutil.copytree(seed["cache"], workdir / "cache")
    sink = _quiet()
    store = ResultCache(workdir / "cache")
    outcomes = BACKENDS[backend](
        seed["specs"],
        sink,
        options=SweepOptions(checkpoint_path=journal, resume=True),
        cache=store,
    )
    store.close()
    [hit] = [e for e in sink.trace.events if e.kind == "cache.hit"]
    return {
        "flags": [(o.from_checkpoint, o.from_cache) for o in outcomes],
        "results": [o.result for o in outcomes],
        "cache_hit": {
            key: hit.data.get(key) for key in ("hits", "misses", "total")
        },
        "journal": sorted(journal.read_text().splitlines()),
        "sink": sink,
    }


class TestCrossBackendParity:
    @pytest.fixture(scope="class")
    def settled(self, tmp_path_factory):
        seed = _seeded(tmp_path_factory.mktemp("ledger-seed"))
        return seed, {
            backend: _settle_on(
                backend, seed, tmp_path_factory.mktemp(f"ledger-{backend}")
            )
            for backend in BACKENDS
        }

    def test_resume_and_cache_flags_agree(self, settled):
        seed, runs = settled
        expected = [
            (index in JOURNALED, index in CACHED and index not in JOURNALED)
            for index in range(len(seed["specs"]))
        ]
        for backend, run in runs.items():
            assert run["flags"] == expected, backend
            assert run["results"] == [o.result for o in seed["reference"]]

    def test_cache_hit_counts_agree(self, settled):
        seed, runs = settled
        total = len(seed["specs"])
        executed = total - len(set(JOURNALED) | set(CACHED))
        for backend, run in runs.items():
            assert run["cache_hit"] == {
                "hits": 2, "misses": executed, "total": total
            }, backend

    def test_journal_lines_agree(self, settled):
        _, runs = settled
        lines = runs["serial"]["journal"]
        # Seeded, cache-replayed and executed specs: one line each.
        assert len(lines) == 1 + len(_specs())
        for backend, run in runs.items():
            assert run["journal"] == lines, backend

    def test_folded_sinks_agree(self, settled):
        seed, runs = settled
        for run in runs.values():
            assert_telemetry_identical(run["sink"], seed["reference_sink"])


# -- the one replay rule ------------------------------------------------------
class TestTraceLessReplay:
    """A journal written with no sink, resumed into a sink."""

    @staticmethod
    def _uninterrupted(specs):
        sink = _quiet()
        run_outcomes(specs, telemetry=sink)
        return sink

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_trace_less_journal_entries_re_run(self, backend, tmp_path):
        specs = _specs()[:4]
        journal = tmp_path / "sweep.jsonl"
        run_outcomes(specs[:2], options=SweepOptions(checkpoint_path=journal))
        options = SweepOptions(checkpoint_path=journal, resume=True)
        sink = _quiet()
        outcomes = BACKENDS[backend](specs, sink, options=options)
        assert not any(o.from_checkpoint for o in outcomes)
        assert_telemetry_identical(sink, self._uninterrupted(specs))
        # The re-runs were journaled with their traces: the next resume
        # replays every spec and still keeps the whole trace.
        again = _quiet()
        outcomes = BACKENDS[backend](specs, again, options=options)
        assert all(o.from_checkpoint for o in outcomes)
        assert_telemetry_identical(again, self._uninterrupted(specs))

    def test_trace_less_entries_still_replay_without_a_sink(self, tmp_path):
        specs = _specs()[:2]
        journal = tmp_path / "sweep.jsonl"
        run_outcomes(specs, options=SweepOptions(checkpoint_path=journal))
        outcomes = run_outcomes(
            specs, options=SweepOptions(checkpoint_path=journal, resume=True)
        )
        assert all(o.from_checkpoint for o in outcomes)

    def test_cache_answers_for_a_trace_less_journal_entry(self, tmp_path):
        specs = _specs()[:2]
        journal = tmp_path / "sweep.jsonl"
        run_outcomes(specs, options=SweepOptions(checkpoint_path=journal))
        store = ResultCache(tmp_path / "cache")
        run_outcomes(specs, telemetry=_quiet(), cache=store)
        sink = _quiet()
        outcomes = run_outcomes(
            specs,
            telemetry=sink,
            options=SweepOptions(checkpoint_path=journal, resume=True),
            cache=store,
        )
        assert [(o.from_checkpoint, o.from_cache) for o in outcomes] == [
            (False, True)
        ] * len(specs)
        assert_telemetry_identical(sink, self._uninterrupted(specs))


# -- journal damage is caught when the journal opens --------------------------
def _bang_the_block(entry: dict) -> None:
    floats = entry["telemetry"]["records"]["floats"]
    floats["data"] = "!" * len(floats["data"])


class TestDamagedJournal:
    """A resumed journal is checked line by line before any spec runs."""

    @pytest.mark.parametrize(
        "damage",
        [_bang_the_block, lambda entry: entry.pop("result")],
        ids=["trace-block-not-base64", "result-missing"],
    )
    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_damaged_entry_raises_naming_its_line(
        self, backend, damage, tmp_path
    ):
        specs = _specs()[:3]
        journal = tmp_path / "sweep.jsonl"
        run_outcomes(
            specs[:2],
            telemetry=_quiet(),
            options=SweepOptions(checkpoint_path=journal),
        )
        lines = journal.read_text().splitlines(True)
        entry = json.loads(lines[2])
        damage(entry)
        lines[2] = json.dumps(entry) + "\n"
        journal.write_text("".join(lines))
        damaged = journal.read_bytes()
        sink = _quiet()
        with pytest.raises(CheckpointError, match=f"^{journal}:3: "):
            BACKENDS[backend](
                specs,
                sink,
                options=SweepOptions(checkpoint_path=journal, resume=True),
            )
        # Nothing ran: no outcome was journaled, nothing reached the sink.
        assert journal.read_bytes() == damaged
        assert sink.trace.emitted == 0


# -- the fail-fast fold cut-off -----------------------------------------------
class TestFold:
    @staticmethod
    def _marked_local(index: int) -> Telemetry:
        local = _quiet()
        local.event("probe", index, f"spec {index}")
        return local

    def test_fold_stops_before_the_failing_spec(self):
        specs = _specs()
        sink = _quiet()
        ledger = SweepLedger(specs, sink, SweepOptions())
        stop = 3
        for index in range(len(specs)):
            if index == stop:
                ledger.charge_failure(index, 0, "error", "RuntimeError", "x")
            else:
                ledger.settle_success(
                    index, 1, None, self._marked_local(index)
                )
        ledger.fold(stop=stop)
        folded = [
            e.sample_index for e in sink.trace.events if e.kind == "probe"
        ]
        assert folded == list(range(stop))
        ledger.fold()  # idempotent: a second fold adds nothing
        assert sum(e.kind == "probe" for e in sink.trace.events) == stop

    def test_fold_skips_failures_and_keeps_spec_order(self):
        specs = _specs()
        sink = _quiet()
        ledger = SweepLedger(specs, sink, SweepOptions())
        for index in reversed(range(len(specs))):
            if index % 2:
                ledger.charge_failure(index, 0, "error", "RuntimeError", "x")
            else:
                ledger.settle_success(
                    index, 1, None, self._marked_local(index)
                )
        ledger.fold()
        folded = [
            e.sample_index for e in sink.trace.events if e.kind == "probe"
        ]
        assert folded == [0, 2, 4]


# -- malformed worker requests ------------------------------------------------
def _malformed_then_complete(send_bad):
    """A griefer leases one spec and sends ``send_bad``'s request; a
    real worker then has to finish the sweep."""
    specs = _specs()[:2]
    telemetry = _quiet()
    coordinator = ShardCoordinator(specs, _cluster(), telemetry=telemetry)
    coordinator.start()
    worker = None
    try:
        client = _RawClient(coordinator.port)
        assert client.read()["type"] == "welcome"
        grant = client.lease(1)
        assert grant["state"] == "ok"
        send_bad(client, grant["leases"][0])
        reply = client.read()
        assert reply is not None and reply["type"] == "error"
        client.close()
        worker = _start_worker(coordinator.port)
        outcomes = _wait(coordinator)
    finally:
        coordinator.request_stop()
        if worker is not None:
            worker.join(timeout=60)
    assert all(o.error is None and o.attempts == 1 for o in outcomes)
    assert "shard.worker_lost" in [e.kind for e in telemetry.trace.events]
    return reply


class TestMalformedWorkerRequests:
    @pytest.mark.parametrize("attempt", ["x", -3, None, 1.5, True])
    @pytest.mark.parametrize("ok", [False, True])
    def test_bad_attempt_requeues_the_lease(self, attempt, ok):
        def send_bad(client, lease):
            client.send(
                {
                    "type": "result",
                    "index": lease["index"],
                    "fingerprint": lease["fingerprint"],
                    "attempt": attempt,
                    "ok": ok,
                    "result": {},
                    "failure": {"kind": "error", "exc_type": "RuntimeError"},
                }
            )

        reply = _malformed_then_complete(send_bad)
        assert "attempt" in reply["reason"]

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("failure", ["not", "a", "dict"]),
            ("telemetry", ["not", "a", "dict"]),
            # Dicts the final fold could not read: each must be refused
            # before it is journaled or cached.
            ("telemetry", {"records": [1]}),
            ("telemetry", {"events": [{"kind": "probe"}]}),
            ("telemetry", {"metrics": {"m": {"kind": "counter"}}}),
            ("telemetry", {"meta": 7}),
        ],
    )
    def test_malformed_payload_field_requeues_the_lease(self, field, value):
        def send_bad(client, lease):
            message = {
                "type": "result",
                "index": lease["index"],
                "fingerprint": lease["fingerprint"],
                "attempt": lease["attempt"],
                "ok": field == "telemetry",
                field: value,
            }
            if field == "telemetry":
                # A decodable result, so only the telemetry is at fault.
                [outcome] = run_outcomes([_specs()[lease["index"]]])
                message["result"] = result_to_dict(outcome.result)
            client.send(message)

        reply = _malformed_then_complete(send_bad)
        assert field in reply["reason"]

    @pytest.mark.parametrize("maximum", ["x", None, 2.5])
    def test_bad_lease_max_requeues_held_leases(self, maximum):
        def send_bad(client, lease):
            client.send({"type": "lease", "max": maximum})

        reply = _malformed_then_complete(send_bad)
        assert "max" in reply["reason"]
