"""The cross-sweep result cache: durability, parity, invalidation.

The headline guarantee is the Level-5 analogue of every other perf
layer's: a *warm* sweep (results replayed from ``ResultCache``) is
bit-identical to a *cold* one -- same results, same folded trace
records/events, same metrics -- at every execution level (serial loop,
pool workers, lane batching, the orchestrated runner, the distributed
coordinator).  ``cache.*`` orchestration events are excluded from
parity exactly like ``sweep.*`` / ``shard.*``.

The store itself is exercised the way a shared on-disk artifact gets
abused in practice: torn tails from killed writers, corrupt lines,
concurrent sweeps, GC compaction mid-use, and kernel-version bumps
that must provably invalidate every prior entry.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import TelemetryConfig
from repro.errors import CacheError, CheckpointError, ConfigError
from repro.sim import cache as cache_module
from repro.sim.batch import plan_batches
from repro.sim.cache import (
    CACHE_SCHEMA,
    ResultCache,
    cache_key,
    resolve_cache_dir,
)
from repro.sim.checkpoint import CheckpointJournal, spec_fingerprint
from repro.sim.codec import (
    result_from_dict,
    result_to_dict,
    telemetry_to_dict,
)
from repro.sim.parallel import (
    RetryPolicy,
    SweepOptions,
    SweepDefaults,
    _run_task,
    matrix_specs,
    resolve_sweep,
    run_outcomes,
    run_specs,
    sweep_defaults,
)
from repro.telemetry.core import Telemetry

INSTRUCTIONS = 150_000
BENCHMARKS = ("gcc", "gzip")
POLICIES = ("none", "pid")


def _specs():
    return matrix_specs(BENCHMARKS, POLICIES, instructions=INSTRUCTIONS)


def _quiet() -> Telemetry:
    """Deterministic sink: no wall-clock observations, no spans."""
    return Telemetry(TelemetryConfig(sample_latency=False, profile=False))


def _events(telemetry):
    """Trace events minus the orchestration diagnostics."""
    return [
        e
        for e in telemetry.trace.events
        if not e.kind.startswith(("sweep.", "shard.", "cache."))
    ]


def _metrics(telemetry):
    return {
        name: stats
        for name, stats in telemetry.metrics.snapshot().items()
        if not name.startswith(
            ("events.sweep.", "events.shard.", "events.cache.")
        )
    }


def assert_telemetry_identical(warm: Telemetry, cold: Telemetry):
    """Warm and cold sweeps both fold saved payloads, so their sinks
    must agree *exactly* -- repr equality catches every float bit (and
    treats NaN fields as equal, which ``==`` would not)."""
    assert repr(warm.trace.records()) == repr(cold.trace.records())
    assert repr(_events(warm)) == repr(_events(cold))
    assert repr(_metrics(warm)) == repr(_metrics(cold))


def _completed(spec, telemetry=True):
    """One executed spec: ``(key, result, worker-local telemetry)``."""
    [(_, result, local)] = _run_task(
        [spec], TelemetryConfig(sample_latency=False, profile=False)
        if telemetry
        else None,
    )
    return cache_key(spec), result, local


def _scanned_index(directory) -> dict:
    """The index a fresh reader builds by scanning the log."""
    reader = ResultCache(directory)
    reader._refresh()
    return dict(reader._index)


# -- the store ----------------------------------------------------------------
class TestResultCacheStore:
    def test_round_trip_is_codec_lossless(self, tmp_path):
        spec = _specs()[1]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache")
        assert store.store(key, spec, result, local)
        entry = store.lookup(key, need_telemetry=True)
        assert entry is not None
        assert result_from_dict(entry["result"]) == result
        assert entry["telemetry"] is not None
        assert entry["benchmark"] == spec.benchmark
        assert entry["policy"] == spec.policy

    def test_telemetry_less_entry_misses_when_telemetry_needed(
        self, tmp_path
    ):
        spec = _specs()[0]
        key, result, _ = _completed(spec, telemetry=False)
        store = ResultCache(tmp_path / "cache")
        store.store(key, spec, result, None)
        assert store.lookup(key, need_telemetry=True) is None
        assert store.lookup(key) is not None

    def test_only_telemetry_upgrades_overwrite(self, tmp_path):
        spec = _specs()[0]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache")
        assert store.store(key, spec, result, None)
        # Same-or-worse entries are skipped ...
        assert not store.store(key, spec, result, None)
        # ... but attaching telemetry upgrades in place.
        assert store.store(key, spec, result, local)
        assert not store.store(key, spec, result, local)
        assert store.lookup(key, need_telemetry=True) is not None

    def test_counters_persist_across_instances(self, tmp_path):
        spec = _specs()[0]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache")
        store.store(key, spec, result, local)
        assert store.lookup(key) is not None  # hit
        assert store.lookup("no-such-key") is None  # miss
        store.close()
        reopened = ResultCache(tmp_path / "cache")
        stats = reopened.stats()
        assert stats["hits"] == 1
        # store_payload's pre-insert probe does not count; only the
        # explicit lookup misses do.
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_kernel_version_bump_invalidates_every_entry(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import fast as fast_module

        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        old_keys = []
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
            old_keys.append(key)
        assert all(store.lookup(key) is not None for key in old_keys)
        monkeypatch.setattr(fast_module, "KERNEL_VERSION", "fast-kernel/v2")
        new_keys = [cache_key(spec) for spec in specs]
        assert set(new_keys).isdisjoint(old_keys)
        assert all(store.lookup(key) is None for key in new_keys)

    def test_explicit_kernel_version_pins_the_key(self):
        spec = _specs()[0]
        a = cache_key(spec, kernel_version="x")
        b = cache_key(spec, kernel_version="y")
        assert a != b
        assert cache_key(spec, kernel_version="x") == a

    def test_torn_tail_is_tolerated_and_healed(self, tmp_path):
        spec = _specs()[0]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache")
        store.store(key, spec, result, local)
        log = tmp_path / "cache" / "cache.log"
        with open(log, "ab") as handle:
            handle.write(b'{"type": "entry", "key": "torn')  # no newline
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.lookup(key) is not None
        assert fresh.verify()["torn_tail"]
        # The next locked write truncates the tail before appending.
        spec2 = _specs()[1]
        key2, result2, local2 = _completed(spec2)
        fresh.store(key2, spec2, result2, local2)
        report = fresh.verify()
        assert not report["torn_tail"]
        assert report["entries"] == 2
        assert report["errors"] == []
        # The writer indexed its own append where a reader finds it.
        assert fresh._index == _scanned_index(tmp_path / "cache")

    def test_crash_mid_append_loses_only_the_last_entry(self, tmp_path):
        """Truncating the log mid-line (what a ``kill -9`` during the
        fsync'd append leaves behind) never damages earlier entries."""
        specs = _specs()[:2]
        store = ResultCache(tmp_path / "cache")
        keys = []
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
            keys.append(key)
        store.close()
        log = tmp_path / "cache" / "cache.log"
        raw = log.read_bytes()
        log.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])
        survivor = ResultCache(tmp_path / "cache")
        assert survivor.lookup(keys[0]) is not None
        assert survivor.lookup(keys[1]) is None
        # Re-storing the lost spec heals the store completely.
        key, result, local = _completed(specs[1])
        survivor.store(key, specs[1], result, local)
        assert survivor.verify()["errors"] == []

    def test_corrupt_mid_file_line_is_skipped_and_counted(self, tmp_path):
        specs = _specs()[:2]
        store = ResultCache(tmp_path / "cache")
        key0, result0, local0 = _completed(specs[0])
        store.store(key0, specs[0], result0, local0)
        store.close()
        log = tmp_path / "cache" / "cache.log"
        with open(log, "ab") as handle:
            handle.write(b"!!! not json at all\n")
        key1, result1, local1 = _completed(specs[1])
        fresh = ResultCache(tmp_path / "cache")
        fresh.store(key1, specs[1], result1, local1)
        assert fresh.lookup(key0) is not None
        assert fresh.lookup(key1) is not None
        assert fresh.stats()["corrupt_lines"] == 1
        # GC reclaims the damage.
        fresh.gc()
        assert fresh.stats()["corrupt_lines"] == 0
        assert fresh.verify()["errors"] == []

    def test_foreign_schema_header_is_rejected(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / "cache.log").write_text(
            json.dumps({"type": "header", "schema": "someone.elses/v9"})
            + "\n"
        )
        store = ResultCache(directory)
        with pytest.raises(CacheError, match="schema"):
            store.lookup("anything")

    def test_v1_store_is_rejected_naming_v2(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / "cache.log").write_text(
            json.dumps({"type": "header", "schema": "repro.cache/v1"})
            + "\n"
        )
        store = ResultCache(directory)
        with pytest.raises(CacheError, match="repro.cache/v2.*fresh"):
            store.lookup("anything")

    def test_concurrent_writers_lose_no_entries(self, tmp_path):
        specs = matrix_specs(
            BENCHMARKS, POLICIES, seeds=(0, 1), instructions=INSTRUCTIONS
        )
        completed = [(spec, *_completed(spec)[1:]) for spec in specs]
        writer_indexes = []

        def write(spec, result, local):
            # Each writer opens its own handle, like separate sweeps
            # sharing one directory.
            own = ResultCache(tmp_path / "cache")
            own.store(cache_key(spec), spec, result, local)
            writer_indexes.append(dict(own._index))
            own.close()

        threads = [
            threading.Thread(target=write, args=entry)
            for entry in completed
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store = ResultCache(tmp_path / "cache")
        report = store.verify()
        assert report["entries"] == len(specs)
        assert report["errors"] == []
        for spec, result, _ in completed:
            entry = store.lookup(cache_key(spec), need_telemetry=True)
            assert result_from_dict(entry["result"]) == result
        # Each writer's view (the log up to and including its own
        # append) agrees with a fresh scan of the finished log.
        scanned = _scanned_index(tmp_path / "cache")
        assert len(scanned) == len(specs)
        for index in writer_indexes:
            assert index.items() <= scanned.items()
        assert set().union(*writer_indexes) == set(scanned)

    def test_gc_evicts_least_recently_used_first(self, tmp_path):
        specs = _specs()[:3]
        store = ResultCache(tmp_path / "cache")
        keys = []
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
            keys.append(key)
        # Touch the *oldest* entry so it becomes the most recent.
        assert store.lookup(keys[0]) is not None
        store.flush()
        entry_bytes = [
            length for (_, length, _) in store._index.values()
        ]
        budget = sum(entry_bytes) - min(entry_bytes) // 2  # forces 1 out
        summary = store.gc(budget)
        assert summary == {
            "kept": 2,
            "evicted": 1,
            "bytes": (tmp_path / "cache" / "cache.log").stat().st_size,
        }
        # keys[1] was least recently used (stored 2nd, never touched
        # after keys[0]'s re-touch) -- it is the one evicted.
        assert store.lookup(keys[0]) is not None
        assert store.lookup(keys[1]) is None
        assert store.lookup(keys[2]) is not None

    def test_gc_is_deterministic_over_log_contents(self, tmp_path):
        specs = _specs()
        store = ResultCache(tmp_path / "a")
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
        store.lookup(cache_key(specs[0]))
        store.flush()
        store.close()
        # A byte-identical replica must evict identically: eviction
        # order depends only on log contents, never on clocks.
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        survivors = []
        for name in ("a", "b"):
            replica = ResultCache(tmp_path / name)
            replica.gc(3000)
            survivors.append(sorted(replica._index))
        assert survivors[0] == survivors[1]

    def test_gc_zero_budget_evicts_everything(self, tmp_path):
        specs = _specs()[:2]
        store = ResultCache(tmp_path / "cache")
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
        summary = store.gc(0)
        assert summary["kept"] == 0 and summary["evicted"] == 2
        assert store.stats()["entries"] == 0
        assert store.stats()["evictions"] == 2

    def test_flush_compacts_past_the_byte_budget(self, tmp_path):
        spec = _specs()[0]
        key, result, local = _completed(spec)
        store = ResultCache(tmp_path / "cache", max_bytes=1)
        store.store(key, spec, result, local)
        store.flush()
        assert store.stats()["entries"] == 0  # budget of 1 byte fits none

    def test_verify_reports_undecodable_entries(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        lines = [
            {"type": "header", "schema": CACHE_SCHEMA},
            {"type": "entry", "key": "k", "result": {"not": "a result"}},
        ]
        (directory / "cache.log").write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        report = ResultCache(directory).verify()
        assert report["undecodable_entries"] == 1
        assert report["errors"]

    def test_verify_checks_each_trace_block(self, tmp_path):
        directory = tmp_path / "cache"
        specs = _specs()[:2]
        store = ResultCache(directory)
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
        store.close()
        log = directory / "cache.log"
        number = _rewrite_entry(
            log,
            cache_key(specs[1]),
            lambda entry: entry["telemetry"]["records"]["index"].pop(),
        )
        report = ResultCache(directory).verify()
        assert report["entries"] == 2
        assert report["undecodable_entries"] == 1
        assert report["corrupt_lines"] == 0
        [error] = report["errors"]
        assert error.startswith(f"line {number}: entry {cache_key(specs[1])}")
        assert "index" in error

    def test_missing_store_verifies_clean(self, tmp_path):
        report = ResultCache(tmp_path / "cache").verify()
        assert report["entries"] == 0
        assert report["errors"] == []
        assert not report["torn_tail"]


class _CountingJson:
    """Stand-in for :mod:`json` in :mod:`repro.sim.cache` counting parses."""

    dumps = staticmethod(json.dumps)

    def __init__(self):
        self.parses = 0
        #: The bytes of every parsed line, in parse order.
        self.parsed: list = []

    def loads(self, *args, **kwargs):
        self.parses += 1
        self.parsed.append(args[0])
        return json.loads(*args, **kwargs)


class TestStoreWritePath:
    """A store is one encode plus one fsync'd append, nothing more."""

    def test_store_neither_rereads_the_log_nor_reparses_its_line(
        self, tmp_path, monkeypatch
    ):
        specs = _specs()[:3]
        store = ResultCache(tmp_path / "cache")
        for spec in specs[:2]:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
        key, result, local = _completed(specs[2])
        counting = _CountingJson()

        def whole_file_read(path):
            raise AssertionError(f"whole-file read of {path}")

        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "json", counting)
            patch.setattr(Path, "read_bytes", whole_file_read)
            assert store.store(key, specs[2], result, local)
        assert counting.parses == 0
        assert store._index == _scanned_index(tmp_path / "cache")
        entry = store.lookup(key, need_telemetry=True)
        assert result_from_dict(entry["result"]) == result

    def test_fresh_reader_builds_the_writers_index(self, tmp_path):
        directory = tmp_path / "cache"
        store = ResultCache(directory)
        spec = _specs()[0]
        key, result, local = _completed(spec)
        store.store(key, spec, result, None)
        assert store._index == _scanned_index(directory)
        # A telemetry upgrade supersedes the entry in both views.
        store.store(key, spec, result, local)
        assert store._index[key][2]
        assert store._index == _scanned_index(directory)

    def test_unexpected_log_size_falls_back_to_a_scan(self, tmp_path):
        directory = tmp_path / "cache"
        store = ResultCache(directory)
        specs = _specs()[:2]
        key, result, local = _completed(specs[0])
        store.store(key, specs[0], result, local)
        write = store._write_lines_locked

        def write_then_stray_append(lines, fsync):
            lengths = write(lines, fsync)
            # Bytes the writer did not produce (a writer ignoring the
            # flock) make the size check fail.
            with open(directory / "cache.log", "ab") as handle:
                handle.write(b'{"type": "touch", "key": "stray"}\n')
            return lengths

        store._write_lines_locked = write_then_stray_append
        key, result, local = _completed(specs[1])
        assert store.store(key, specs[1], result, local)
        assert store._scan_pos == (directory / "cache.log").stat().st_size
        assert store._index == _scanned_index(directory)
        assert len(store._index) == 2


def _parsed_scan(log: bytes):
    """``(index, counters, corrupt)`` from parsing every complete line.

    A copy of the scan the store ran before it indexed its own entry
    lines by their fixed prefix and suffix: the reference that
    prefix-indexing must reproduce.
    """
    index, corrupt = {}, 0
    counters = dict.fromkeys(("hits", "misses", "evictions"), 0)
    offset = 0
    for raw in log.splitlines(keepends=True):
        if not raw.endswith(b"\n"):
            break
        try:
            data = json.loads(raw)
        except ValueError:
            data = None
        kind = data.get("type") if isinstance(data, dict) else None
        if kind == "entry":
            key = data.get("key")
            if isinstance(key, str) and isinstance(data.get("result"), dict):
                index[key] = (
                    offset, len(raw), data.get("telemetry") is not None
                )
            else:
                corrupt += 1
        elif kind == "counters":
            for name in counters:
                value = data.get(name, 0)
                if isinstance(value, (int, float)):
                    counters[name] += int(value)
        elif kind == "header":
            if data.get("schema") != CACHE_SCHEMA:
                raise CacheError(f"foreign schema {data.get('schema')!r}")
        elif kind != "touch":
            corrupt += 1
        offset += len(raw)
    return index, counters, corrupt


def _hand_entry(key, telemetry, variant) -> str:
    """An entry line the writer would never produce, in one of the
    layouts the scan must leave to the parser."""
    entry = {
        "type": "entry",
        "key": key,
        "benchmark": "gcc",
        "result": {"value": 1.5},
        "telemetry": telemetry,
    }
    if variant == "reordered":
        return json.dumps({"key": key, "type": "entry", **entry})
    if variant == "compact":
        return json.dumps(entry, separators=(",", ":"))
    if variant == "upper":
        return json.dumps({**entry, "key": "ABCDEF" + key[6:]})
    if variant == "short":
        return json.dumps({**entry, "key": key[:23]})
    if variant == "long":
        return json.dumps({**entry, "key": key + "0"})
    if variant == "escaped":
        # Decodes to ``key`` itself: it must index under that key.
        return json.dumps(entry).replace(
            f'"key": "{key[0]}', f'"key": "\\u{ord(key[0]):04x}', 1
        )
    return json.dumps(entry) + "  "  # trailing spaces


_HEX_KEY = st.text("0123456789abcdef", min_size=24, max_size=24)
_TELEMETRY = st.sampled_from(
    [None, {}, {"records": [1.5, -0.0], "telemetry": None}]
)
_LOG_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("store"),
            st.integers(0, 3),
            _TELEMETRY,
            st.sampled_from(["gcc", "gzip-ñ", "ärger", "日本"]),
        ),
        st.tuples(
            st.just("hand"),
            st.integers(0, 3),
            _TELEMETRY,
            st.sampled_from(
                ["reordered", "compact", "upper", "short", "long",
                 "escaped", "trailing"]
            ),
        ),
        st.tuples(st.just("touch"), st.integers(0, 3)),
        st.tuples(
            st.just("counters"), st.integers(0, 5), st.integers(0, 5)
        ),
        st.tuples(st.just("header")),
        st.tuples(st.just("garbage")),
    ),
    max_size=12,
)


class TestPrefixIndexedScan:
    """Opening a store indexes the writer's entry lines unparsed, and
    builds exactly the index a parse of every line builds."""

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(_HEX_KEY, min_size=4, max_size=4, unique=True),
           ops=_LOG_OPS)
    @example(
        keys=["0" * 24, "a" * 24, "0123456789abcdef01234567", "f" * 24],
        ops=[
            ("store", 0, None, "gcc"),
            ("touch", 0),
            ("store", 0, {"records": [1.5, -0.0], "telemetry": None}, "gcc"),
            ("hand", 1, None, "escaped"),
            ("store", 1, {}, "日本"),
            ("counters", 2, 3),
        ],
    )
    def test_scan_matches_a_full_parse(self, keys, ops):
        header = json.dumps({"type": "header", "schema": CACHE_SCHEMA})
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch) / "cache"
            log = directory / "cache.log"
            writer = ResultCache(directory)

            def append(line):
                with open(log, "ab") as handle:
                    handle.write((line + "\n").encode("utf-8"))

            append(header)
            writer_lines = set()
            for kind, *args in ops:
                if kind == "store":
                    which, telemetry, name = args
                    size = log.stat().st_size
                    spec = SimpleNamespace(
                        benchmark=name, policy="pid", seed=0
                    )
                    if writer.store_payload(
                        keys[which], spec, {"value": 1.5}, telemetry,
                        fingerprint="fp",
                    ):
                        writer_lines.add(log.read_bytes()[size:])
                elif kind == "hand":
                    append(_hand_entry(keys[args[0]], *args[1:]))
                elif kind == "touch":
                    append(json.dumps({"type": "touch", "key": keys[args[0]]}))
                elif kind == "counters":
                    hits, misses = args
                    append(json.dumps(
                        {"type": "counters", "hits": hits, "misses": misses}
                    ))
                elif kind == "header":
                    append(header)
                else:
                    append("!!! not json at all")
            writer.close()
            raw = log.read_bytes()
            counting = _CountingJson()
            reader = ResultCache(directory)
            with mock.patch.object(cache_module, "json", counting):
                reader._refresh()
            index, counters, corrupt = _parsed_scan(raw)
            assert reader._index == index
            assert reader._persisted == counters
            assert reader._corrupt == corrupt
            assert reader._scan_pos == len(raw)
            reader.close()
        # Only the writer's entry lines skip the parser; every other
        # line (header, touch, counters, garbage, hand-written entries)
        # is parsed exactly as before.
        for line in raw.splitlines(keepends=True):
            assert (line in counting.parsed) == (line not in writer_lines)


def _entry_line(log: Path, key: str) -> tuple[int, bytes]:
    """``(1-based line number, bytes)`` of ``key``'s latest entry line."""
    found = None
    prefix = f'{{"type": "entry", "key": "{key}",'.encode("ascii")
    for number, line in enumerate(log.read_bytes().splitlines(True), 1):
        if line.startswith(prefix):
            found = (number, line)
    return found


def _damage_result(log: Path, key: str) -> int:
    """Overwrite bytes mid-``result`` in ``key``'s entry line, keeping
    its prefix, suffix and length; return the line's number."""
    number, line = _entry_line(log, key)
    start = line.index(b'"result": ')
    end = line.rindex(b', "telemetry": ')
    middle = (start + end) // 2
    # NUL is invalid JSON both inside and outside a string.
    damaged = line[:middle] + b"\x00" * 8 + line[middle + 8:]
    lines = log.read_bytes().splitlines(True)
    lines[number - 1] = damaged
    log.write_bytes(b"".join(lines))
    return number


def _rewrite_entry(log: Path, key: str, mutate) -> int:
    """Re-encode ``key``'s entry line after ``mutate(entry)``, keeping
    the writer's layout (so the open still indexes it unparsed);
    return the line's number."""
    number, line = _entry_line(log, key)
    entry = json.loads(line)
    mutate(entry)
    lines = log.read_bytes().splitlines(True)
    lines[number - 1] = (json.dumps(entry) + "\n").encode("utf-8")
    log.write_bytes(b"".join(lines))
    return number


#: Entry bodies that parse as JSON but could not replay.
_BODY_DAMAGE = {
    "result-missing-fields": lambda entry: entry.__setitem__(
        "result", {"benchmark": "gcc"}
    ),
    "records-as-v1-rows": lambda entry: entry["telemetry"].__setitem__(
        "records", [{"bogus": 1}]
    ),
    "records-not-a-block": lambda entry: entry["telemetry"].__setitem__(
        "records", {"bogus": 1}
    ),
    "block-bytes-short": lambda entry: entry["telemetry"]["records"][
        "floats"
    ].__setitem__(
        "data", entry["telemetry"]["records"]["floats"]["data"][:-8]
    ),
}


class TestReadPath:
    """A hit parses its own line once and validates it there."""

    def test_open_parses_no_entry_and_each_hit_parses_once(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "cache"
        specs = _specs()
        store = ResultCache(directory)
        keys = []
        for spec in specs:
            key, result, local = _completed(spec)
            store.store(key, spec, result, local)
            keys.append(key)
        store.close()
        log = directory / "cache.log"
        entry_lines = {_entry_line(log, key)[1] for key in keys}
        counting = _CountingJson()
        monkeypatch.setattr(cache_module, "json", counting)

        def entry_parses():
            return sum(line in entry_lines for line in counting.parsed)

        fresh = ResultCache(directory)
        assert fresh.stats()["entries"] == len(specs)
        assert entry_parses() == 0
        for key in keys:
            assert fresh.lookup(key, need_telemetry=True) is not None
        assert entry_parses() == len(specs)  # not 2N

    @pytest.mark.parametrize("with_telemetry", [False, True])
    def test_damaged_entry_body_is_a_counted_miss_then_heals(
        self, tmp_path, with_telemetry
    ):
        directory = tmp_path / "cache"
        log = directory / "cache.log"
        specs = _specs()

        def sweep():
            sink = _quiet() if with_telemetry else None
            return run_specs(specs, jobs=1, cache=str(directory),
                             telemetry=sink)

        reference = sweep()
        key = cache_key(specs[1])
        _, original = _entry_line(log, key)
        # A telemetry-less line ends ``"telemetry": null}\n``; the
        # damage leaves that suffix (and the prefix) intact.
        assert original.endswith(b', "telemetry": null}\n') is (
            not with_telemetry
        )
        number = _damage_result(log, key)
        fresh = ResultCache(directory)
        # Entry bodies are checked when read, not when the log opens.
        assert fresh.stats()["corrupt_lines"] == 0
        assert fresh.lookup(key, need_telemetry=with_telemetry) is None
        assert fresh.stats()["corrupt_lines"] == 1
        assert fresh.lookup(key, need_telemetry=with_telemetry) is None
        assert fresh.stats()["corrupt_lines"] == 1
        assert key not in fresh._index
        fresh.close()
        report = ResultCache(directory).verify()
        assert any(
            error.startswith(f"line {number}:") for error in report["errors"]
        )
        # The next sweep re-runs the spec and re-stores the same bytes.
        assert sweep() == reference
        assert _entry_line(log, key)[1] == original
        report = ResultCache(directory).verify()
        assert (report["entries"], report["corrupt_lines"]) == (len(specs), 1)
        healed = ResultCache(directory)
        assert healed.lookup(key, need_telemetry=with_telemetry) is not None
        healed.gc()
        assert healed.verify()["errors"] == []
        assert healed.stats()["corrupt_lines"] == 0
        assert healed.stats()["entries"] == len(specs)

    @pytest.mark.parametrize("damage", sorted(_BODY_DAMAGE))
    def test_parseable_bad_body_is_a_counted_miss(self, tmp_path, damage):
        directory = tmp_path / "cache"
        log = directory / "cache.log"
        specs = _specs()

        def sweep(sink):
            return run_specs(specs, jobs=1, cache=str(directory),
                             telemetry=sink)

        cold = _quiet()
        reference = sweep(cold)
        key = cache_key(specs[1])
        number = _rewrite_entry(log, key, _BODY_DAMAGE[damage])
        fresh = ResultCache(directory)
        assert fresh.lookup(key, need_telemetry=True) is None
        assert fresh.lookup(key) is None
        assert fresh.stats()["corrupt_lines"] == 1
        assert key not in fresh._index
        fresh.close()
        report = ResultCache(directory).verify()
        assert report["undecodable_entries"] == 1
        assert any(
            error.startswith(f"line {number}:") for error in report["errors"]
        )
        # The sweep misses on the damaged entry, re-runs that spec and
        # replays the rest: same results and the same folded telemetry.
        warm = _quiet()
        assert sweep(warm) == reference
        assert_telemetry_identical(warm, cold)
        assert ResultCache(directory).lookup(key, need_telemetry=True)

    _KEY = "0123456789abcdef01234567"

    @pytest.mark.parametrize(
        "body",
        [
            b'"result": {"value": ###}, "telemetry": null}',
            b'"result": [1.5], "telemetry": null}',
            b'"result": {}, "telemetry": null, "attempts": 1}',
            b'"key": "another", "result": {}, "telemetry": null}',
            b'"type": "touch", "result": {}, "telemetry": {}}',
        ],
        ids=["not-json", "result-not-dict", "telemetry-flag",
             "second-key", "second-type"],
    )
    def test_writer_layout_with_a_bad_body_never_replays(
        self, tmp_path, body
    ):
        directory = tmp_path / "cache"
        directory.mkdir()
        header = json.dumps({"type": "header", "schema": CACHE_SCHEMA})
        (directory / "cache.log").write_bytes(
            header.encode("ascii")
            + b'\n{"type": "entry", "key": "'
            + self._KEY.encode("ascii")
            + b'", '
            + body
            + b"\n"
        )
        store = ResultCache(directory)
        # Indexed by its prefix, unparsed, at open.
        assert store.stats()["entries"] == 1
        assert store.lookup(self._KEY) is None
        stats = store.stats()
        assert stats["corrupt_lines"] == 1
        assert stats["entries"] == 0


def _jsonable(value):
    """The recursive pre-encode walk the append-logs used to run."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


class TestEncoderParity:
    """The numpy-scalar encoder hook writes the bytes the walk wrote."""

    def _numpy_run(self):
        spec = _specs()[1]
        _, result, local = _completed(spec)
        extra = {
            **result.extra,
            "f64": np.float64(0.1),
            "f32": np.float32(1 / 3),
            "i64": np.int64(-7),
            "flag": np.bool_(True),
        }
        return spec, dataclasses.replace(result, extra=extra), local

    def test_cache_line_is_byte_identical(self, tmp_path):
        spec, result, local = self._numpy_run()
        key = cache_key(spec)
        ResultCache(tmp_path / "cache").store(
            key, spec, result, local, attempts=2
        )
        line = (tmp_path / "cache" / "cache.log").read_bytes()
        expected = {
            "type": "entry",
            "key": key,
            "fingerprint": spec_fingerprint(spec),
            "benchmark": spec.benchmark,
            "policy": spec.policy,
            "seed": spec.seed,
            "attempts": 2,
            "result": result_to_dict(result),
            "telemetry": telemetry_to_dict(local),
        }
        assert line.splitlines()[-1] == json.dumps(
            _jsonable(expected)
        ).encode("utf-8")

    def test_journal_line_is_byte_identical(self, tmp_path):
        spec, result, local = self._numpy_run()
        path = tmp_path / "sweep.ckpt.jsonl"
        fingerprint = spec_fingerprint(spec)
        with CheckpointJournal.open(path) as journal:
            journal.append_outcome(fingerprint, spec, 1, result, local)
        expected = {
            "type": "outcome",
            "fingerprint": fingerprint,
            "benchmark": spec.benchmark,
            "policy": spec.policy,
            "seed": spec.seed,
            "attempts": 1,
            "result": result_to_dict(result),
            "telemetry": telemetry_to_dict(local),
        }
        assert path.read_bytes().splitlines()[-1] == json.dumps(
            _jsonable(expected)
        ).encode("utf-8")

    def test_journal_rejects_a_non_serializable_value(self, tmp_path):
        spec = _specs()[0]
        _, result, _ = _completed(spec, telemetry=False)
        result = dataclasses.replace(result, extra={"bad": object()})
        with CheckpointJournal.open(tmp_path / "j.jsonl") as journal:
            with pytest.raises(CheckpointError, match="JSON-serializable"):
                journal.append_outcome(
                    spec_fingerprint(spec), spec, 1, result
                )


class TestCacheConfiguration:
    def test_relative_directory_is_rejected_actionably(self):
        with pytest.raises(CacheError, match="absolute"):
            resolve_cache_dir("relative/cache")

    def test_empty_and_non_string_directories_are_rejected(self):
        for bogus in ("", "   ", 7, ["/tmp"]):
            with pytest.raises(CacheError, match="non-empty path"):
                resolve_cache_dir(bogus)

    def test_unwritable_directory_is_rejected(self, tmp_path, monkeypatch):
        import repro.sim.cache as cache_module

        target = tmp_path / "readonly"
        target.mkdir()
        monkeypatch.setattr(
            cache_module.os, "access", lambda path, mode: False
        )
        with pytest.raises(CacheError, match="not writable"):
            resolve_cache_dir(target)

    def test_tilde_expands_before_the_absolute_check(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        path = resolve_cache_dir("~/.cache/repro-test")
        assert path.is_absolute() and path.is_dir()

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(CacheError, match="max_bytes"):
            ResultCache(tmp_path / "cache", max_bytes=0)

    def test_resolve_cache_precedence(self, tmp_path, monkeypatch):
        def resolve_cache(cache):
            return resolve_sweep(cache=cache).cache

        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        store = ResultCache(tmp_path / "direct")
        assert resolve_cache(store) is store
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env"))
        assert resolve_cache(None).directory == tmp_path / "env"
        assert resolve_cache(False) is None  # --no-cache beats the env
        with sweep_defaults(SweepDefaults(cache=tmp_path / "default")):
            assert resolve_cache(None).directory == tmp_path / "default"
        with sweep_defaults(SweepDefaults(cache=False)):
            assert resolve_cache(None) is None

    def test_default_cache_rejects_open_handles(self, tmp_path):
        with pytest.raises(ConfigError, match="path"):
            SweepDefaults(cache=ResultCache(tmp_path / "cache"))


class TestBatchPlanSkip:
    def test_skipped_specs_drop_out_and_break_adjacency(self):
        specs = _specs()  # four mutually lane-compatible specs
        assert plan_batches(specs, 4) == [[0, 1, 2, 3]]


# -- sweep-level parity --------------------------------------------------------
class TestSweepParity:
    @pytest.mark.parametrize(
        "jobs,batch", [(1, 1), (1, 4), (2, 1), (2, 4)]
    )
    def test_warm_sweep_is_bit_identical(self, tmp_path, jobs, batch):
        specs = _specs()
        reference_sink = _quiet()
        reference = run_specs(specs, jobs=1, telemetry=reference_sink)
        store = ResultCache(tmp_path / "cache")
        cold_sink = _quiet()
        cold = run_specs(
            specs, jobs=jobs, batch=batch, telemetry=cold_sink, cache=store
        )
        warm_sink = _quiet()
        warm = run_specs(
            specs, jobs=jobs, batch=batch, telemetry=warm_sink, cache=store
        )
        assert cold == reference
        assert warm == reference
        assert_telemetry_identical(warm_sink, cold_sink)
        # Every spec replayed: the warm pass recorded only hits.
        assert store.stats()["hits"] >= len(specs)

    def test_warm_sweep_records_replay_serial_reference_exactly(
        self, tmp_path
    ):
        """Against a shared-sink serial run (no fold), warm trace
        records and events are exact; gauges match up to the documented
        value-pins-to-extreme merge semantics."""
        specs = _specs()
        serial_sink = _quiet()
        serial = run_specs(specs, jobs=1, telemetry=serial_sink)
        store = ResultCache(tmp_path / "cache")
        run_specs(specs, jobs=1, telemetry=_quiet(), cache=store)
        warm_sink = _quiet()
        warm = run_specs(specs, jobs=1, telemetry=warm_sink, cache=store)
        assert warm == serial
        assert repr(warm_sink.trace.records()) == repr(
            serial_sink.trace.records()
        )
        assert repr(_events(warm_sink)) == repr(_events(serial_sink))

    def test_mixed_warm_cold_sweep_is_bit_identical(self, tmp_path):
        specs = _specs()
        reference = run_specs(specs, jobs=1)
        store = ResultCache(tmp_path / "cache")
        # Pre-warm only half the matrix.
        run_specs(specs[:2], jobs=1, cache=store)
        mixed = run_specs(specs, jobs=2, batch=4, cache=store)
        assert mixed == reference

    def test_cache_hit_event_reports_the_replay(self, tmp_path):
        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        run_specs(specs, jobs=1, telemetry=_quiet(), cache=store)
        warm_sink = _quiet()
        run_specs(specs, jobs=1, telemetry=warm_sink, cache=store)
        hits = [
            e for e in warm_sink.trace.events if e.kind == "cache.hit"
        ]
        assert len(hits) == 1
        assert hits[0].data["hits"] == len(specs)
        assert hits[0].data["total"] == len(specs)

    def test_telemetry_less_entries_upgrade_then_replay(self, tmp_path):
        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        run_specs(specs, jobs=1, cache=store)  # no sink: entries bare
        cold_sink = _quiet()
        run_specs(specs, jobs=1, telemetry=cold_sink, cache=store)
        warm_sink = _quiet()
        run_specs(specs, jobs=1, telemetry=warm_sink, cache=store)
        assert_telemetry_identical(warm_sink, cold_sink)

    @settings(max_examples=6, deadline=None)
    @given(
        jobs=st.sampled_from([1, 2]),
        batch=st.sampled_from([1, 4]),
        prewarm=st.integers(min_value=0, max_value=4),
    )
    def test_any_warm_cold_split_matches_serial(self, jobs, batch, prewarm):
        specs = _specs()
        reference = run_specs(specs, jobs=1)
        with tempfile.TemporaryDirectory() as scratch:
            store = ResultCache(Path(scratch) / "cache")
            if prewarm:
                run_specs(specs[:prewarm], jobs=1, cache=store)
            observed = run_specs(
                specs, jobs=jobs, batch=batch, cache=store
            )
            again = run_specs(
                specs, jobs=jobs, batch=batch, cache=store
            )
        assert observed == reference
        assert again == reference

    def test_kernel_version_bump_forces_re_execution(
        self, tmp_path, monkeypatch
    ):
        from repro.sim import fast as fast_module

        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        run_specs(specs, jobs=1, cache=store)
        baseline_misses = store.stats()["misses"]
        monkeypatch.setattr(
            fast_module, "KERNEL_VERSION", "fast-kernel/v2"
        )
        reference = run_specs(specs, jobs=1)
        warm = run_specs(specs, jobs=1, cache=store)
        assert warm == reference
        # Every spec missed under the new kernel tag and re-executed.
        assert store.stats()["misses"] >= baseline_misses + len(specs)


class TestOrchestratedRunner:
    def test_warm_outcomes_are_marked_and_identical(self, tmp_path):
        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        options = SweepOptions(retry=RetryPolicy(max_retries=1))
        cold_sink = _quiet()
        cold = run_outcomes(
            specs, options=options, telemetry=cold_sink, cache=store
        )
        warm_sink = _quiet()
        warm = run_outcomes(
            specs, options=options, telemetry=warm_sink, cache=store
        )
        assert not any(outcome.from_cache for outcome in cold)
        assert all(outcome.from_cache for outcome in warm)
        for a, b in zip(cold, warm):
            assert a.result == b.result
        assert_telemetry_identical(warm_sink, cold_sink)

    def test_checkpoint_journal_wins_over_cache(self, tmp_path):
        specs = _specs()
        journal = tmp_path / "sweep.jsonl"
        store = ResultCache(tmp_path / "cache")
        options = SweepOptions(
            checkpoint_path=str(journal), resume=True
        )
        cold = run_outcomes(specs, options=options, cache=store)
        resumed = run_outcomes(specs, options=options, cache=store)
        assert all(outcome.from_checkpoint for outcome in resumed)
        assert not any(outcome.from_cache for outcome in resumed)
        for a, b in zip(cold, resumed):
            assert a.result == b.result

    def test_checkpoint_resume_warms_the_cache(self, tmp_path):
        specs = _specs()
        journal = tmp_path / "sweep.jsonl"
        options = SweepOptions(
            checkpoint_path=str(journal), resume=True
        )
        run_outcomes(specs, options=options)  # journal only, no cache
        store = ResultCache(tmp_path / "cache")
        run_outcomes(specs, options=options, cache=store)
        # The resumed entries were written back to the cache, so a
        # journal-less sweep now replays from it.
        warm = run_outcomes(specs, cache=store)
        assert all(outcome.from_cache for outcome in warm)

    def test_interrupted_warm_sweep_journals_its_hits(self, tmp_path):
        """Cache hits append to the checkpoint journal like executed
        specs, so a later --resume needs neither cache nor re-run."""
        specs = _specs()
        store = ResultCache(tmp_path / "cache")
        run_outcomes(specs, cache=store)
        journal = tmp_path / "sweep.jsonl"
        options = SweepOptions(
            checkpoint_path=str(journal), resume=True
        )
        run_outcomes(specs, options=options, cache=store)
        resumed = run_outcomes(specs, options=options)
        assert all(outcome.from_checkpoint for outcome in resumed)


class TestClusteredCache:
    @staticmethod
    def _cluster(port: int = 0):
        from repro.sim.distributed import ClusterConfig

        return ClusterConfig(
            host="127.0.0.1",
            port=port,
            token="secret",
            lease_seconds=10.0,
            heartbeat_seconds=0.5,
            poll_seconds=0.02,
        )

    def _run_clustered(self, specs, store, telemetry=None, workers=2):
        from repro.sim.distributed import ShardCoordinator, run_worker

        coordinator = ShardCoordinator(
            specs, self._cluster(), telemetry=telemetry, cache=store
        )
        coordinator.start()
        threads = []
        try:
            threads = [
                threading.Thread(
                    target=run_worker,
                    args=(self._cluster(coordinator.port),),
                    kwargs=dict(
                        once=True,
                        idle_timeout=60.0,
                        reconnect_seconds=0.05,
                    ),
                    daemon=True,
                )
                for _ in range(workers)
            ]
            for thread in threads:
                thread.start()
            outcomes = coordinator.wait()
        finally:
            coordinator.request_stop()
            for thread in threads:
                thread.join(timeout=60)
        return outcomes, coordinator.stats()

    def test_warm_cluster_answers_without_leasing(self, tmp_path):
        specs = _specs()
        reference = run_specs(specs, jobs=1)
        store = ResultCache(tmp_path / "cache")
        cold_sink = _quiet()
        cold, cold_stats = self._run_clustered(
            specs, store, telemetry=cold_sink
        )
        warm_sink = _quiet()
        # Zero workers: every spec must be answered from the cache
        # before any lease could happen.
        warm, warm_stats = self._run_clustered(
            specs, store, telemetry=warm_sink, workers=0
        )
        assert cold_stats["executed"] == len(specs)
        assert cold_stats["cached"] == 0
        assert warm_stats["cached"] == len(specs)
        assert warm_stats["executed"] == 0
        assert [o.result for o in cold] == reference
        assert [o.result for o in warm] == reference
        assert all(outcome.from_cache for outcome in warm)
        assert_telemetry_identical(warm_sink, cold_sink)


class TestRunSuiteCache:
    def test_run_suite_replays_from_the_cache(self, tmp_path):
        from repro.sim.sweep import run_suite

        store = ResultCache(tmp_path / "cache")
        kwargs = dict(
            policies=["pid"],
            benchmarks=["gcc"],
            instructions=INSTRUCTIONS,
        )
        cold = run_suite(cache=store, **kwargs)
        executed = store.stats()["misses"]
        warm = run_suite(cache=store, **kwargs)
        assert warm == cold
        assert store.stats()["misses"] == executed  # no new executions
