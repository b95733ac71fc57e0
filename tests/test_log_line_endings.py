"""Append-log lines end at ``\\n`` only, whatever the line holds.

The result cache's open scan walks ``cache.log`` on ``\\n``.  Its
``gc()`` and ``verify()`` and the journal's ``load_checkpoint`` must
read the same lines: a stray ``\\r`` inside one damaged line may cost
that line, never its neighbours.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import CheckpointError
from repro.sim.cache import CACHE_SCHEMA, ResultCache, cache_key
from repro.sim.checkpoint import (
    SWEEP_SCHEMA,
    CheckpointJournal,
    load_checkpoint,
    spec_fingerprint,
)
from repro.sim.parallel import matrix_specs
from repro.sim.sweep import run_one

INSTRUCTIONS = 100_000

#: One damaged entry line with a carriage return in the middle.
DAMAGED = b'{"type": "entry", "key": "dam\raged", "result": {\n'


def _run(spec):
    return run_one(
        spec.benchmark, spec.policy, instructions=spec.instructions,
        seed=spec.seed,
    )


def _cache_with_damaged_line(directory):
    """Three intact entries after a damaged one; returns their keys."""
    specs = matrix_specs(
        ("gcc",), ("none", "toggle1", "pid"), instructions=INSTRUCTIONS
    )
    store = ResultCache(directory)
    for spec in specs:
        store.store(cache_key(spec), spec, _run(spec))
    store.close()
    log = directory / "cache.log"
    header, rest = log.read_bytes().split(b"\n", 1)
    assert json.loads(header)["schema"] == CACHE_SCHEMA
    log.write_bytes(header + b"\n" + DAMAGED + rest)
    return [cache_key(spec) for spec in specs]


class TestCacheLines:
    def test_gc_keeps_every_entry_after_a_damaged_line(self, tmp_path):
        keys = _cache_with_damaged_line(tmp_path / "cache")
        store = ResultCache(tmp_path / "cache")
        summary = store.gc(10**9)
        assert summary["kept"] == len(keys)
        assert summary["evicted"] == 0
        assert all(store.lookup(key) is not None for key in keys)
        assert DAMAGED not in (tmp_path / "cache" / "cache.log").read_bytes()

    def test_verify_counts_a_damaged_line_once(self, tmp_path):
        keys = _cache_with_damaged_line(tmp_path / "cache")
        report = ResultCache(tmp_path / "cache").verify()
        assert report["corrupt_lines"] == 1
        assert report["entries"] == len(keys)
        assert report["undecodable_entries"] == 0
        assert not report["torn_tail"]

    def test_verify_reads_a_torn_tail_with_a_carriage_return(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        header = json.dumps({"type": "header", "schema": CACHE_SCHEMA})
        (directory / "cache.log").write_bytes(
            header.encode() + b"\n" + b'{"type": "ent\rry", "ke'
        )
        report = ResultCache(directory).verify()
        assert report["torn_tail"]
        assert report["corrupt_lines"] == 0
        assert report["errors"] == []


class TestJournalLines:
    def test_torn_tail_with_a_carriage_return_is_the_torn_tail(
        self, tmp_path
    ):
        [spec] = matrix_specs(("gcc",), ("pid",), instructions=INSTRUCTIONS)
        path = tmp_path / "sweep.jsonl"
        with CheckpointJournal.open(path) as journal:
            journal.append_outcome(spec_fingerprint(spec), spec, 1, _run(spec))
        with path.open("ab") as handle:
            handle.write(b'{"type": "outcome", "finger\rprint": "a')
        saved = load_checkpoint(path)
        assert [entry["attempts"] for entry in saved[spec_fingerprint(spec)]] \
            == [1]

    def test_carriage_return_mid_file_is_still_corruption(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        header = json.dumps({"type": "header", "schema": SWEEP_SCHEMA})
        path.write_bytes(
            header.encode() + b"\n" + b'{"type": "out\rcome"}\n' + b"{}\n"
        )
        with pytest.raises(CheckpointError, match="corrupt journal line"):
            load_checkpoint(path)
