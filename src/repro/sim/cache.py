"""Level 5: the persistent, content-addressed cross-sweep result cache.

Every run in this codebase is a pure function of its
:class:`~repro.sim.parallel.WorkSpec`: the engine is seeded from the
spec alone, results round-trip losslessly through the shared codec
(:mod:`repro.sim.codec`), and specs are canonically fingerprinted
(:func:`~repro.sim.checkpoint.spec_fingerprint`).  The first four
performance layers (pool fan-out, the fused kernel, lane batching,
distributed sharding) all make the same work faster; this layer stops
repeating it.  :class:`ResultCache` memoizes completed specs on disk so
a re-run sweep -- an iterating user, CI, overlapping experiment drivers
-- replays its results instead of recomputing them.

Keys and invalidation
---------------------

A cache key is **content-addressed twice over**: the sha256 of the
spec's checkpoint fingerprint extended with the store schema
(:data:`CACHE_SCHEMA`) and the simulation kernel version
(:data:`repro.sim.fast.KERNEL_VERSION`).  Any spec field change
produces a new fingerprint; any kernel-numerics change bumps
``KERNEL_VERSION``; either way old entries simply stop matching -- no
flush step, no way to replay stale numbers.  Orphaned entries are
reclaimed by GC.

Replay parity
-------------

A cache entry stores the same codec payloads the ``repro.sweep/v2``
checkpoint journal stores: the encoded
:class:`~repro.sim.results.RunResult` plus the run's retain-everything
worker telemetry.  A hit therefore replays the result bit-identically
(repr-lossless floats) and folds its traces/events/metrics through
:func:`~repro.sim.codec.fold_saved_telemetry` in spec order -- the
identical path checkpoint resume and the shard coordinator already
use -- so a warm sweep's sink equals a cold one's exactly.  ``cache.*``
orchestration events are the deliberate exception, excluded from
parity like ``sweep.*`` / ``shard.*``.  An entry stored by a
telemetry-less sweep carries no telemetry payload and is treated as a
**miss** when the requesting sweep needs telemetry (the run re-executes
and the entry upgrades in place).

Durability and concurrency
--------------------------

The store is a ``repro.cache/v2``
:class:`~repro.sim.checkpoint.AppendLog` (``cache.log``: schema header,
fsync'd appends, torn-tail rule, line walker) plus an in-memory index,
under ``~/.cache/repro`` by default.  Every append happens under an
exclusive ``fcntl`` lock on a sibling ``cache.lock``, so concurrent
sweeps never interleave partial lines, and GC publishes its compacted
log atomically (:meth:`~repro.sim.checkpoint.AppendLog.replace`).  A
store is one encode and one fsync'd append; the writer, having scanned
to EOF under the lock, indexes its own line from the offset and length
it wrote rather than re-reading it.

Opening a store is one streamed pass over line boundaries.  An entry
line in the writer's own layout (``{"type": "entry", "key": "<24 hex>",
...`` ending in the ``telemetry`` value) is indexed from that fixed
prefix and suffix without being parsed, and a touch line in the
writer's layout (``{"type": "touch", "key": "<24 hex>"}``), which the
scan has no use for, is skipped unparsed; every other line -- header,
counters, hand-edited or foreign -- is parsed and checked as it is
scanned.  A hit parses its own line once (with
:class:`~repro.sim.codec.SavedLineDecoder`, which slices the trace's
base64 out instead of JSON-scanning it) and runs the one check of its
body there (:func:`~repro.sim.codec.check_saved_outcome`): the
result must decode and the telemetry must pass
:func:`~repro.sim.codec.check_saved_telemetry`, a structural check that
scans the trace block's base64 alphabet once and decodes none of it.
The hit hands the checked payload on, and the fold decodes only the
rows its sink keeps.  So a corrupt line is counted when the scan meets
it, or, for damage inside an entry's body, when a lookup first reads
it; either way it is skipped (the lookup misses and the spec re-runs)
and reclaimed by the next GC -- a cache that could abort the sweep it
accelerates would be worse than none.

GC is deterministic LRU: ``touch`` lines appended at sweep end record
hit order, the compactor keeps the most-recently-used entries whose
payload bytes fit the budget, and eviction order depends only on log
contents (no clocks).  Hit/miss/eviction counters feed the shared
metrics registry (:func:`cache_metrics`) live and persist as
``counters`` lines so ``python -m repro cache stats`` reports totals
across every process that ever used the store.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from pathlib import Path

from repro.errors import CacheError, CodecError
from repro.sim.checkpoint import AppendLog, spec_fingerprint
from repro.sim.codec import (
    SavedLineDecoder,
    check_saved_outcome,
    result_to_dict,
    telemetry_to_dict,
)
from repro.telemetry.metrics import MetricsRegistry

try:  # pragma: no cover - always present on the POSIX CI runners
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback: best effort
    fcntl = None

import hashlib

#: Version tag of the store's line format, folded into every cache key;
#: bumped on any change to the entry layout.  Entries written under a
#: different schema never match a lookup, so a format change invalidates
#: the store without a migration step.
CACHE_SCHEMA = "repro.cache/v2"

#: Default store location (``--cache`` with no directory, and the
#: ``REPRO_CACHE`` environment variable's conventional value).
DEFAULT_CACHE_DIR = "~/.cache/repro"

#: Default GC budget for entry payload bytes (overridable per store and
#: via ``REPRO_CACHE_MAX_BYTES``).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Shared process-wide metrics registry for cache counters
#: (``cache.hits`` / ``cache.misses`` / ``cache.evictions``); separate
#: from any sweep's telemetry sink on purpose, so cache bookkeeping can
#: never perturb the bit-identical telemetry parity guarantee.
_METRICS = MetricsRegistry()

_COUNTERS = ("hits", "misses", "evictions")

#: The start of every entry line :meth:`ResultCache.store_payload`
#: writes: ``json.dumps`` keeps its dict's key order, so the type and
#: the 24-hex-digit key always come first.  The scan indexes a line
#: that starts this way and ends ``}\n`` without parsing it.
_WRITER_ENTRY = re.compile(rb'\{"type": "entry", "key": "([0-9a-f]{24})",')

#: A whole touch line as :meth:`ResultCache.flush` writes it.  The
#: index scan has no use for touch lines (GC and ``verify`` read them
#: in passes of their own), so it skips one of these without parsing
#: it; a warm sweep appends one per hit.
_WRITER_TOUCH = re.compile(rb'\{"type": "touch", "key": "[0-9a-f]{24}"\}\n')

#: How such a line ends when it carries no telemetry payload
#: (``telemetry`` is the writer's last key; a nested payload would end
#: ``}}\n`` instead).
_NO_TELEMETRY_END = b', "telemetry": null}\n'


def cache_metrics() -> MetricsRegistry:
    """The shared registry cache counters are recorded on."""
    return _METRICS


def _entry_body_error(entry: dict) -> str | None:
    """Why an entry's result or telemetry would not replay, or ``None``."""
    try:
        check_saved_outcome(entry)
    except CodecError as error:
        return f"{type(error).__name__}: {error}"
    return None


def resolve_cache_dir(directory) -> Path:
    """Validate a cache directory; create it; return the absolute path.

    Rejects relative paths (they would silently address a *different*
    cache from every working directory), uncreatable paths, and
    directories this process cannot write, each with an actionable
    message.  ``~`` expands before the absolute-path check, so the
    default ``~/.cache/repro`` always passes.
    """
    if isinstance(directory, Path):
        directory = str(directory)
    if not isinstance(directory, str) or not directory.strip():
        raise CacheError(
            f"cache directory must be a non-empty path, got {directory!r}"
        )
    path = Path(directory).expanduser()
    if not path.is_absolute():
        raise CacheError(
            f"cache directory must be an absolute path, got {directory!r} "
            f"(a relative path names a different cache from every working "
            f"directory; pass e.g. --cache {Path.cwd() / directory})"
        )
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise CacheError(
            f"cannot create cache directory {path}: {error} "
            f"(pick a writable location with --cache DIR or REPRO_CACHE)"
        ) from error
    if not path.is_dir():
        raise CacheError(f"cache path {path} exists but is not a directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise CacheError(
            f"cache directory {path} is not writable "
            f"(fix its permissions or pick another with --cache DIR)"
        )
    return path


def cache_key(spec, kernel_version: str | None = None) -> str:
    """Content-addressed store key for one spec.

    The checkpoint fingerprint already hashes every result-determining
    spec field; extending it with the store schema and the simulation
    kernel version means a kernel-numerics bump (or a store format
    change) makes every previously written entry unreachable -- clean
    invalidation with no flush step.  ``kernel_version`` defaults to
    the live :data:`repro.sim.fast.KERNEL_VERSION` (read at call time,
    so tests can prove the invalidation property by patching it).
    """
    if kernel_version is None:
        from repro.sim import fast as fast_module

        kernel_version = fast_module.KERNEL_VERSION
    text = f"{spec_fingerprint(spec)}|{CACHE_SCHEMA}|{kernel_version}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


class ResultCache:
    """One directory-backed result store: append-log + index + GC.

    Cheap to construct (the log is scanned lazily and incrementally);
    sweeps open one per invocation from a directory path.  All methods
    are safe against concurrent sweeps sharing the directory -- reads
    tolerate a torn tail and mid-file corruption, writes serialize
    under the ``cache.lock`` flock, and a GC compaction by another
    process is detected by inode change and triggers a rescan.
    """

    def __init__(self, directory=None, max_bytes: int | None = None) -> None:
        self.directory = resolve_cache_dir(
            directory if directory is not None else DEFAULT_CACHE_DIR
        )
        if max_bytes is None:
            env = os.environ.get("REPRO_CACHE_MAX_BYTES")
            max_bytes = int(env) if env else DEFAULT_MAX_BYTES
        if not isinstance(max_bytes, int) or max_bytes <= 0:
            raise CacheError(
                f"max_bytes must be a positive int, got {max_bytes!r}"
            )
        self.max_bytes = max_bytes
        self._log = AppendLog(self.directory / "cache.log", CACHE_SCHEMA)
        self._lock_path = self.directory / "cache.lock"
        #: key -> (byte offset, line length, has_telemetry); latest
        #: entry line per key wins, matching the append-log semantics.
        self._index: dict[str, tuple[int, int, bool]] = {}
        self._read_handle = None
        self._log_ino: int | None = None
        self._scan_pos = 0
        self._corrupt = 0
        #: Counter totals read back from persisted ``counters`` lines.
        self._persisted = dict.fromkeys(_COUNTERS, 0)
        #: This instance's unflushed counter deltas.
        self._session = dict.fromkeys(_COUNTERS, 0)
        #: Hit keys in first-hit order, flushed as LRU ``touch`` lines.
        self._touched: dict[str, None] = {}

    # -- log scanning --------------------------------------------------------
    def _reset_view(self) -> None:
        if self._read_handle is not None:
            self._read_handle.close()
            self._read_handle = None
        self._log_ino = None
        self._scan_pos = 0
        self._corrupt = 0
        self._index.clear()
        self._persisted = dict.fromkeys(_COUNTERS, 0)

    def _refresh(self) -> None:
        """Fold any newly appended complete log lines into the index."""
        if self._read_handle is not None:
            try:
                stat = os.stat(self._log.path)
            except FileNotFoundError:
                self._reset_view()
                return
            if stat.st_ino != self._log_ino or stat.st_size < self._scan_pos:
                # GC (ours or another process's) replaced the log; the
                # index offsets point into the old inode.  Rescan.
                self._reset_view()
        if self._read_handle is None:
            try:
                self._read_handle = open(self._log.path, "rb")
            except FileNotFoundError:
                return
            self._log_ino = os.fstat(self._read_handle.fileno()).st_ino
        size = os.fstat(self._read_handle.fileno()).st_size
        if size <= self._scan_pos:
            return
        for offset, raw in AppendLog.lines(self._read_handle, self._scan_pos):
            self._consume_line(raw, offset)
            self._scan_pos = offset + len(raw)

    def _consume_line(self, raw: bytes, offset: int) -> None:
        writer_entry = _WRITER_ENTRY.match(raw)
        if writer_entry is not None and raw.endswith(b"}\n"):
            # The body is checked by the lookup that reads it.
            self._index[writer_entry[1].decode("ascii")] = (
                offset,
                len(raw),
                not raw.endswith(_NO_TELEMETRY_END),
            )
            return
        if _WRITER_TOUCH.fullmatch(raw) is not None:
            return
        try:
            data = json.loads(raw)
        except ValueError:
            self._corrupt += 1
            return
        if not isinstance(data, dict):
            self._corrupt += 1
            return
        kind = data.get("type")
        if kind == "entry":
            key = data.get("key")
            if isinstance(key, str) and isinstance(data.get("result"), dict):
                self._index[key] = (
                    offset,
                    len(raw),
                    data.get("telemetry") is not None,
                )
            else:
                self._corrupt += 1
        elif kind == "counters":
            for name in _COUNTERS:
                value = data.get(name, 0)
                if isinstance(value, (int, float)):
                    self._persisted[name] += int(value)
        elif kind == "header":
            schema = data.get("schema")
            if schema != CACHE_SCHEMA:
                raise CacheError(
                    f"{self._log.path}: store schema {schema!r} is not "
                    f"{CACHE_SCHEMA!r}; point --cache at a fresh directory"
                )
        elif kind != "touch":
            self._corrupt += 1

    def _read_entry(self, key: str) -> dict | None:
        """Parse and check ``key``'s indexed line; drop it if damaged.

        The line is parsed with
        :class:`~repro.sim.codec.SavedLineDecoder`, and the entry comes
        back as stored, plus the checked
        :class:`~repro.sim.codec.SavedTelemetry` under ``saved``
        (``None`` for a telemetry-less entry).  A line that is not a
        well-formed entry for ``key``, whose telemetry presence
        disagrees with the index, whose result does not decode or whose
        telemetry the fold could not read counts once as corrupt and
        leaves the index, so the lookup misses and the spec re-runs and
        re-stores.
        """
        offset, length, has_telemetry = self._index[key]
        self._read_handle.seek(offset)
        try:
            entry = json.loads(
                self._read_handle.read(length), cls=SavedLineDecoder
            )
        except ValueError:
            entry = None
        if (
            isinstance(entry, dict)
            and entry.get("type") == "entry"
            and entry.get("key") == key
            and (entry.get("telemetry") is not None) == has_telemetry
        ):
            try:
                entry["saved"] = check_saved_outcome(entry)
            except CodecError:
                pass
            else:
                return entry
        self._corrupt += 1
        del self._index[key]
        return None

    # -- counters ------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self._session[name] += amount
        _METRICS.counter(f"cache.{name}").inc(amount)

    # -- lookups -------------------------------------------------------------
    def lookup(self, key: str, need_telemetry: bool = False) -> dict | None:
        """The stored entry for ``key``, checked, or ``None`` (a miss).

        The entry's ``saved`` is the checked
        :class:`~repro.sim.codec.SavedTelemetry` its fold reads.

        ``need_telemetry=True`` treats an entry without a telemetry
        payload as a miss: replaying its result without its trace would
        break the warm/cold parity guarantee, so the spec re-runs (and
        :meth:`store` upgrades the entry with telemetry attached).
        """
        self._refresh()
        location = self._index.get(key)
        if location is not None:
            _, _, has_telemetry = location
            if has_telemetry or not need_telemetry:
                entry = self._read_entry(key)
                if entry is not None:
                    self._count("hits")
                    # Re-touching moves the key to the back of the LRU
                    # order this sweep will flush.
                    self._touched.pop(key, None)
                    self._touched[key] = None
                    return entry
        self._count("misses")
        return None

    # -- writes --------------------------------------------------------------
    @contextmanager
    def _locked(self):
        handle = open(self._lock_path, "a+", encoding="utf-8")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            handle.close()

    def _write_lines_locked(self, lines: list[dict], fsync: bool) -> list[int]:
        """Append ``lines`` (always fsync'd); return each line's byte length."""
        return self._log.append(lines)

    def store(
        self, key: str, spec, result, local_telemetry=None, attempts: int = 1
    ) -> bool:
        """Encode and persist one completed run; True if written."""
        return self.store_payload(
            key,
            spec,
            result_to_dict(result),
            telemetry_to_dict(local_telemetry),
            attempts=attempts,
        )

    def store_payload(
        self,
        key: str,
        spec,
        result_payload: dict,
        telemetry_payload: dict | None,
        attempts: int = 1,
        fingerprint: str | None = None,
    ) -> bool:
        """Persist one run from already-encoded wire payloads.

        Skips (returns False) when the key already holds an entry at
        least as good -- the only accepted overwrite is upgrading a
        telemetry-less entry with one that carries telemetry.  The
        append is fsync'd under the store flock, with a re-check inside
        the lock so concurrent sweeps storing the same spec write one
        entry, not two.
        """
        def fresh_needed() -> bool:
            existing = self._index.get(key)
            return existing is None or (
                telemetry_payload is not None and not existing[2]
            )

        self._refresh()
        if not fresh_needed():
            return False
        with self._locked():
            self._log.prepare()
            self._refresh()
            if not fresh_needed():
                return False
            # Under the flock the scan has reached EOF, so the entry
            # lands at _scan_pos; index it directly instead of re-reading
            # and re-parsing the line just written.
            offset = self._scan_pos
            [length] = self._write_lines_locked(
                [
                    {
                        "type": "entry",
                        "key": key,
                        "fingerprint": (
                            fingerprint
                            if fingerprint is not None
                            else spec_fingerprint(spec)
                        ),
                        "benchmark": spec.benchmark,
                        "policy": spec.policy,
                        "seed": spec.seed,
                        "attempts": int(attempts),
                        "result": result_payload,
                        "telemetry": telemetry_payload,
                    }
                ],
                fsync=True,
            )
            end = offset + length
            handle = self._read_handle
            if handle is not None and os.fstat(handle.fileno()).st_size == end:
                has_telemetry = telemetry_payload is not None
                self._index[key] = (offset, length, has_telemetry)
                self._scan_pos = end
            else:
                self._refresh()
        return True

    def flush(self) -> None:
        """Persist this sweep's LRU touches and counter deltas; maybe GC.

        Called once at the end of a sweep (idempotent; cheap when there
        is nothing to say).  Touch/counter lines ride one locked,
        fsync'd append; afterwards a store grown past ``max_bytes``
        compacts itself.
        """
        lines: list[dict] = [
            {"type": "touch", "key": key} for key in self._touched
        ]
        deltas = {
            name: value for name, value in self._session.items() if value
        }
        if deltas:
            lines.append({"type": "counters", **deltas})
        if lines:
            with self._locked():
                self._log.prepare()
                self._write_lines_locked(lines, fsync=True)
            self._touched.clear()
            # The persisted line is re-read by the next _refresh; only
            # the unflushed deltas reset here, so totals never double.
            self._session = dict.fromkeys(_COUNTERS, 0)
        try:
            size = self._log.path.stat().st_size
        except OSError:
            return
        if size > self.max_bytes:
            self.gc()

    def close(self) -> None:
        """Flush bookkeeping and drop the read handle (idempotent)."""
        self.flush()
        if self._read_handle is not None:
            self._read_handle.close()
            self._read_handle = None
            self._log_ino = None
            self._scan_pos = 0
            self._index.clear()
            self._persisted = dict.fromkeys(_COUNTERS, 0)

    # -- GC ------------------------------------------------------------------
    def gc(self, max_bytes: int | None = None) -> dict:
        """Compact the log, evicting least-recently-used entries.

        Keeps, per key, the latest entry line; orders keys by their
        last use (the greatest log position among the key's entry and
        ``touch`` lines -- purely positional, so two replicas of the
        same log always evict identically); then drops the
        least-recently-used entries until the survivors' payload bytes
        fit the budget.  Corrupt lines and superseded duplicates vanish
        with the compaction, counters lines merge into one, and the new
        log publishes atomically (tempfile + fsync + ``os.replace``)
        under the store flock.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if not isinstance(budget, int) or budget < 0:
            raise CacheError(
                f"gc budget must be a non-negative int, got {budget!r}"
            )
        with self._locked():
            self._log.prepare()
            entries: dict[str, bytes] = {}
            last_use: dict[str, int] = {}
            totals = dict.fromkeys(_COUNTERS, 0)
            with open(self._log.path, "rb") as handle:
                for offset, line in AppendLog.lines(handle):
                    try:
                        data = json.loads(line)
                    except ValueError:
                        continue
                    if not isinstance(data, dict):
                        continue
                    kind = data.get("type")
                    key = data.get("key")
                    if kind == "entry" and isinstance(key, str):
                        if isinstance(data.get("result"), dict):
                            entries[key] = line
                            last_use[key] = offset
                    elif kind == "touch" and isinstance(key, str):
                        if key in entries:
                            last_use[key] = offset
                    elif kind == "counters":
                        for name in _COUNTERS:
                            value = data.get(name, 0)
                            if isinstance(value, (int, float)):
                                totals[name] += int(value)
            ordered = sorted(entries, key=lambda k: last_use[k])
            payload_bytes = sum(len(entries[key]) for key in ordered)
            evicted = 0
            while ordered and payload_bytes > budget:
                victim = ordered.pop(0)
                payload_bytes -= len(entries.pop(victim))
                evicted += 1
            totals["evictions"] += evicted
            kept = [entries[key] for key in ordered]
            if any(totals.values()):
                kept.append(AppendLog.encode({"type": "counters", **totals}))
            self._log.replace(kept)
        if evicted:
            # The compacted counters line already persists the eviction
            # total; only the live registry needs the increment (going
            # through _session too would double-count at next flush).
            _METRICS.counter("cache.evictions").inc(evicted)
        self._reset_view()
        self._refresh()
        return {
            "kept": len(ordered),
            "evicted": evicted,
            "bytes": self._log.path.stat().st_size,
        }

    # -- diagnostics ---------------------------------------------------------
    def stats(self) -> dict:
        """Store summary: entry count, sizes, and lifetime counters.

        Counters are the persisted totals of every sweep that ever
        flushed to this store plus this instance's unflushed deltas;
        the same increments flow live through the shared registry
        (:func:`cache_metrics`) for in-process observability.

        ``corrupt_lines`` counts the damaged lines this instance has
        met: lines the scan could not index, plus entry lines whose
        body failed its check when a lookup read it.  Damage inside an
        unread entry's body shows up here only once a lookup reads it;
        :meth:`verify` reports it up front.
        """
        self._refresh()
        try:
            size = self._log.path.stat().st_size
        except OSError:
            size = 0
        return {
            "path": str(self.directory),
            "entries": len(self._index),
            "bytes": size,
            "max_bytes": self.max_bytes,
            "corrupt_lines": self._corrupt,
            **{
                name: self._persisted[name] + self._session[name]
                for name in _COUNTERS
            },
        }

    def verify(self) -> dict:
        """Scan the whole log; report structural and decode problems.

        Unlike :meth:`lookup` (which silently treats damage as a miss),
        this checks every entry's body the way a hit does -- the result
        decodes, the telemetry passes
        :func:`~repro.sim.codec.check_saved_telemetry` -- and reports
        anything wrong: corrupt lines, undecodable entries, a torn tail,
        a missing or foreign schema header.  Returns a
        report dict; never raises for content problems (a missing store
        verifies clean as empty).
        """
        report = {
            "path": str(self._log.path),
            "schema_ok": True,
            "entries": 0,
            "touches": 0,
            "counter_lines": 0,
            "corrupt_lines": 0,
            "undecodable_entries": 0,
            "torn_tail": False,
            "bytes": 0,
            "errors": [],
        }
        try:
            handle = open(self._log.path, "rb")
        except FileNotFoundError:
            return report
        with handle:
            report["bytes"] = os.fstat(handle.fileno()).st_size
            lines = [line for _, line in AppendLog.lines(handle)]
        report["torn_tail"] = sum(map(len, lines)) < report["bytes"]
        header_seen = False
        for number, line in enumerate(lines, start=1):
            try:
                data = json.loads(line)
            except ValueError:
                report["corrupt_lines"] += 1
                report["errors"].append(f"line {number}: not JSON")
                continue
            if not isinstance(data, dict):
                report["corrupt_lines"] += 1
                report["errors"].append(f"line {number}: not an object")
                continue
            kind = data.get("type")
            if kind == "header":
                header_seen = True
                if data.get("schema") != CACHE_SCHEMA:
                    report["schema_ok"] = False
                    report["errors"].append(
                        f"line {number}: schema {data.get('schema')!r} "
                        f"is not {CACHE_SCHEMA!r}"
                    )
            elif kind == "entry":
                report["entries"] += 1
                error = _entry_body_error(data)
                if error is not None:
                    report["undecodable_entries"] += 1
                    report["errors"].append(
                        f"line {number}: entry "
                        f"{data.get('key', '?')} undecodable ({error})"
                    )
            elif kind == "touch":
                report["touches"] += 1
            elif kind == "counters":
                report["counter_lines"] += 1
            else:
                report["corrupt_lines"] += 1
                report["errors"].append(
                    f"line {number}: unknown line type {kind!r}"
                )
        if lines and not header_seen:
            report["schema_ok"] = False
            report["errors"].append("missing schema header")
        return report
