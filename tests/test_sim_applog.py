"""The append log under the sweep journal and the result cache.

:class:`~repro.sim.checkpoint.AppendLog` defines the format once: a
schema header, fsync'd appends, a torn tail that is the bytes after the
last ``\\n`` (never yielded, cut before the next append), one ``\\n``
line walker, and an atomic :meth:`replace` that keeps the log's mode.
These tests pin that contract through both logs.
"""

from __future__ import annotations

import io
import json
import os
import stat
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.sim import checkpoint
from repro.sim.cache import CACHE_SCHEMA, ResultCache, cache_key
from repro.sim.checkpoint import (
    SWEEP_SCHEMA,
    AppendLog,
    CheckpointJournal,
    load_checkpoint,
    spec_fingerprint,
)
from repro.sim.parallel import SweepOptions, matrix_specs, run_outcomes
from repro.sim.sweep import run_one

INSTRUCTIONS = 100_000

#: A log killed while writing its header.
TORN_HEADER = b'{"type": "head'


def _specs(policies=("none", "pid")):
    return matrix_specs(("gcc",), policies, instructions=INSTRUCTIONS)


def _run(spec):
    return run_one(
        spec.benchmark, spec.policy, instructions=spec.instructions,
        seed=spec.seed,
    )


def _journal_with_one_outcome(path):
    [spec] = _specs(("pid",))
    with CheckpointJournal.open(path) as journal:
        journal.append_outcome(spec_fingerprint(spec), spec, 1, _run(spec))
    return spec


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(previous)


class TestTornHeader:
    def test_a_sweep_resumes_a_journal_torn_mid_header(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_bytes(TORN_HEADER)
        specs = _specs()
        outcomes = run_outcomes(
            specs, options=SweepOptions(checkpoint_path=path, resume=True)
        )
        assert all(outcome.ok for outcome in outcomes)
        assert path.read_bytes().startswith(
            AppendLog.encode({"type": "header", "schema": SWEEP_SCHEMA})
        )
        assert sum(map(len, load_checkpoint(path).values())) == len(specs)

    def test_a_cache_torn_mid_header_gets_its_header_back(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / "cache.log").write_bytes(TORN_HEADER)
        [spec] = _specs(("pid",))
        store = ResultCache(directory)
        assert store.store(cache_key(spec), spec, _run(spec))
        report = store.verify()
        assert report["schema_ok"]
        assert report["errors"] == []
        assert report["entries"] == 1
        header = (directory / "cache.log").read_bytes().split(b"\n", 1)[0]
        assert json.loads(header) == {"type": "header", "schema": CACHE_SCHEMA}


class TestNonUtf8Journal:
    def test_a_non_utf8_torn_tail_is_discarded(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        spec = _journal_with_one_outcome(path)
        intact = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b'{"type": "outcome", "finger\xffprint')
        assert len(load_checkpoint(path)[spec_fingerprint(spec)]) == 1
        CheckpointJournal.open(path, resume=True).close()
        assert path.read_bytes() == intact

    def test_non_utf8_bytes_mid_file_are_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _journal_with_one_outcome(path)
        with path.open("ab") as handle:
            handle.write(b'{"type": "out\xffcome"}\n{}\n')
        with pytest.raises(CheckpointError, match=r":3: corrupt journal line"):
            load_checkpoint(path)


class TestOneTornTailRule:
    def test_a_complete_unparseable_final_line_is_corruption(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        _journal_with_one_outcome(path)
        with path.open("ab") as handle:
            handle.write(b'{"type": "outcome", "fing\n')
        with pytest.raises(CheckpointError, match=r":3: corrupt journal line"):
            load_checkpoint(path)


class TestReplaceKeepsTheMode:
    def test_gc_keeps_the_cache_log_mode(self, tmp_path, umask_022):
        directory = tmp_path / "cache"
        [spec] = _specs(("pid",))
        store = ResultCache(directory)
        store.store(cache_key(spec), spec, _run(spec))
        log = directory / "cache.log"
        assert _mode(log) == 0o644
        store.gc(10**9)
        assert _mode(log) == 0o644
        os.chmod(log, 0o640)
        store.gc(0)
        assert _mode(log) == 0o640

    def test_a_fresh_journal_gets_the_mode_open_would_give(
        self, tmp_path, umask_022
    ):
        path = tmp_path / "sweep.jsonl"
        CheckpointJournal.open(path).close()
        assert _mode(path) == 0o644
        os.chmod(path, 0o640)
        CheckpointJournal.open(path).close()
        assert _mode(path) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["sweep.jsonl"]


#: Log-like byte strings: newlines are frequent, so are carriage
#: returns, any other byte (non-UTF-8 included) may appear, and the
#: final segment need not end a line.
_LOGS = st.lists(
    st.one_of(st.just(b"\n"), st.just(b"\r"), st.binary(max_size=40)),
    max_size=12,
).map(b"".join)


def _complete_lines(raw: bytes) -> list[tuple[int, bytes]]:
    """The reference walk: ``readlines`` minus the torn tail, with offsets."""
    out, offset = [], 0
    for line in io.BytesIO(raw).readlines():
        if line.endswith(b"\n"):
            out.append((offset, line))
        offset += len(line)
    return out


class TestLines:
    @settings(max_examples=300, deadline=None)
    @given(raw=_LOGS)
    @example(raw=b"")
    @example(raw=b"torn only")
    @example(raw=b"a\rb\n\xff\xfe\ntorn\r")
    @example(raw=b"\n\n\r\n")
    def test_yields_exactly_the_complete_lines(self, raw):
        expected = _complete_lines(raw)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "log"
            path.write_bytes(raw)
            with path.open("rb") as handle:
                assert list(AppendLog.lines(handle)) == expected
                ends = [offset + len(line) for offset, line in expected]
                for index, start in enumerate(ends, start=1):
                    assert list(AppendLog.lines(handle, start)) == \
                        expected[index:]

    @settings(max_examples=300, deadline=None)
    @given(raw=_LOGS, chunk=st.integers(1, 16))
    @example(raw=b"abc\ndef\n", chunk=4)
    @example(raw=b"abc\nd", chunk=1)
    def test_lines_spanning_read_chunks_come_back_whole(self, raw, chunk):
        expected = _complete_lines(raw)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "log"
            path.write_bytes(raw)
            with mock.patch.object(checkpoint, "_WALK_CHUNK", chunk):
                with path.open("rb") as handle:
                    assert list(AppendLog.lines(handle)) == expected
