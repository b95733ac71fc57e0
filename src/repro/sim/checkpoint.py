"""Crash-safe sweep checkpointing: the ``repro.sweep/v2`` journal.

A fault-tolerant sweep (:func:`repro.sim.parallel.run_outcomes`) can be
killed at any instant -- a worker ``os._exit``, an OOM kill, a Ctrl-C,
a machine reboot.  This module persists every *completed* spec so a
restarted sweep re-runs only the incomplete ones:

* :class:`AppendLog` -- the append-only JSON-lines format this journal
  and the result cache (:mod:`repro.sim.cache`) are both written in:
  a schema header, fsync'd appends, the torn-tail rule and the one
  line walker.
* :class:`CheckpointJournal` -- the ``repro.sweep/v2`` log.  After the
  header, every line is one completed spec: its order-independent
  fingerprint, attempt count, the full
  :class:`~repro.sim.results.RunResult` (history included), and the
  run's worker-local telemetry (retained records, events, metrics,
  meta).  Each line is on disk before the outcome is reported upward,
  so the journal never claims work the disk has not seen; a torn final
  line left by a crash is discarded and that spec simply re-runs.
* :func:`spec_fingerprint` -- a canonical content hash of a
  :class:`~repro.sim.parallel.WorkSpec` (names, frozen configs, fault
  schedules...), stable across processes and sessions.  Resume matches
  saved outcomes by fingerprint *multiset*, so reordering the spec list
  or interleaving several sweeps through one journal still resumes
  correctly, and duplicate specs each consume one saved outcome.
* :func:`load_checkpoint` -- reads a journal for resume and checks
  every outcome once, before any spec runs: a line that would not
  replay is a :class:`CheckpointError` naming ``path:line``.
* :func:`fold_saved_telemetry` -- re-emits a saved run's telemetry onto
  a live sink exactly like
  :func:`~repro.telemetry.core.merge_telemetry` does for a live
  worker's, which is what makes a resumed sweep's retained traces
  bit-identical to an uninterrupted one (telemetry is folded in spec
  order either way; result floats survive the JSON round trip exactly
  because ``repr``-based float serialization is lossless, and the trace
  records travel as a raw float64 block).

The journal is a cache keyed by content: two sweeps that share a spec
(same fingerprint) share its saved outcome, because every run is a pure
function of its spec.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError, CodecError
from repro.sim.codec import (
    check_saved_outcome,
    encode_saved_line,
    fold_saved_telemetry,
    history_from_dict,
    history_to_dict,
    result_from_dict,
    result_to_dict,
    telemetry_to_dict,
)
from repro.sim.results import RunResult

#: Version tag written into every journal header; bumped on any change
#: to the line format.  Loading a journal with a different schema is a
#: :class:`CheckpointError`, never a silent misread.
SWEEP_SCHEMA = "repro.sweep/v2"


# -- spec fingerprints --------------------------------------------------------
def _canonical(value):
    """A deterministic, hashable view of one spec field.

    Dataclasses (frozen configs, floorplans) flatten to (type, field)
    tuples; plain objects such as :class:`~repro.faults.FaultSchedule`
    flatten to their public attributes (underscore-prefixed attributes
    are excluded -- lazily-built caches must not perturb the hash);
    enums to their value; arrays to nested lists.  ``repr`` of the
    result contains no memory addresses, so equal-valued specs
    fingerprint identically across processes and sessions.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, _canonical(value.value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, tuple(value.shape), tuple(value.ravel().tolist()))
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, (dict,)):
        return tuple(
            sorted((str(key), _canonical(item)) for key, item in value.items())
        )
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        return (
            type(value).__name__,
            tuple(
                sorted(
                    (name, _canonical(item))
                    for name, item in attrs.items()
                    if not name.startswith("_")
                )
            ),
        )
    return repr(value)


def spec_fingerprint(spec) -> str:
    """Content hash of one :class:`~repro.sim.parallel.WorkSpec`."""
    text = repr(_canonical(spec))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


# -- shared codec re-exports --------------------------------------------------
# The result/telemetry codec lives in :mod:`repro.sim.codec` (the shard
# protocol shares it verbatim); these names stay importable here because
# the journal format is defined in their terms.
__all__ = [
    "SWEEP_SCHEMA",
    "AppendLog",
    "CheckpointJournal",
    "fold_saved_telemetry",
    "history_from_dict",
    "history_to_dict",
    "load_checkpoint",
    "result_from_dict",
    "result_to_dict",
    "spec_fingerprint",
    "telemetry_to_dict",
    "truncate_partial_tail",
]


# -- the journal --------------------------------------------------------------
class CheckpointJournal:
    """The ``repro.sweep/v2`` journal of completed sweep specs.

    Use :meth:`open` (fresh or resuming) rather than the constructor.
    """

    def __init__(self, log: AppendLog) -> None:
        self.path = log.path
        self._log = log

    # -- writing -------------------------------------------------------------
    @classmethod
    def open(
        cls, path: str | Path, resume: bool = False
    ) -> "CheckpointJournal":
        """Open a journal for appending.

        ``resume=False`` starts fresh (an existing file is replaced);
        ``resume=True`` keeps existing outcomes, first cutting any torn
        tail a crash may have left.  Either way the header is guaranteed
        to be present afterwards.
        """
        log = AppendLog(path, SWEEP_SCHEMA)
        log.path.parent.mkdir(parents=True, exist_ok=True)
        if not resume:
            open(log.path, "wb").close()
        log.prepare()
        return cls(log)

    def append_outcome(
        self,
        fingerprint: str,
        spec,
        attempts: int,
        result: RunResult,
        local_telemetry=None,
    ) -> None:
        """Journal one successfully completed spec."""
        self.append_payload(
            fingerprint,
            spec,
            attempts,
            result_to_dict(result),
            telemetry_to_dict(local_telemetry),
        )

    def append_payload(
        self,
        fingerprint: str,
        spec,
        attempts: int,
        result_payload: dict,
        telemetry_payload: dict | None,
    ) -> None:
        """Journal one completed spec from already-encoded wire payloads.

        The shard coordinator receives results as codec dicts over TCP
        and journals them verbatim -- re-decoding and re-encoding would
        only risk drift, since the worker already used the same codec.
        """
        record = {
            "type": "outcome",
            "fingerprint": fingerprint,
            "benchmark": spec.benchmark,
            "policy": spec.policy,
            "seed": spec.seed,
            "attempts": attempts,
            "result": result_payload,
            "telemetry": telemetry_payload,
        }
        try:
            self._log.append([record])
        except (TypeError, ValueError) as error:
            raise CheckpointError(
                f"checkpoint entry is not JSON-serializable: {error}"
            ) from error

    def close(self) -> None:
        """Nothing to release: each append opens and closes the log."""

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- the append log -----------------------------------------------------------
#: Block size of :func:`truncate_partial_tail`'s backward newline scan.
_TAIL_BLOCK = 64 * 1024

#: Read size of :meth:`AppendLog.lines`.  Saved outcome lines run to
#: hundreds of KB, which a default 8 KB buffered ``readline`` fetches in
#: dozens of reads each.
_WALK_CHUNK = 1024 * 1024


def truncate_partial_tail(path: Path) -> None:
    """Cut the torn tail (the bytes after the last newline) off a log.

    Complete lines are never touched, so byte offsets held by concurrent
    readers of the same file stay valid.

    Reads only the tail: the last byte, and only when that is not a
    newline, backwards in :data:`_TAIL_BLOCK`-sized blocks to the last
    newline -- so the check costs O(1) on a healthy log of any size.
    """
    with path.open("rb") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end == 0:
            return
        handle.seek(end - 1)
        if handle.read(1) == b"\n":
            return
        cut = 0
        position = end
        while position > 0:
            start = max(0, position - _TAIL_BLOCK)
            handle.seek(start)
            newline = handle.read(position - start).rfind(b"\n")
            if newline >= 0:
                cut = start + newline + 1
                break
            position = start
    os.truncate(path, cut)


class AppendLog:
    """The JSON-lines format of the sweep journal and the result store.

    Line 1 is the schema header; every line ends at ``\\n`` and only
    there, whatever bytes (``\\r``, non-UTF-8) it holds.  Appends are
    ``fsync``'d before they return, so a caller acknowledges only work
    the disk has seen.  A crash mid-append leaves at most one *torn
    tail*, the bytes after the last ``\\n``, which :meth:`lines` never
    yields and :meth:`prepare` cuts.  A complete line that does not
    parse is corruption wherever it sits, for the reader to reject (the
    journal) or skip (the cache).  The log takes no lock: the journal
    has one writer, and the cache serializes its writers under a flock.
    """

    def __init__(self, path: str | Path, schema: str) -> None:
        self.path = Path(path)
        self._header = {"type": "header", "schema": schema}

    @staticmethod
    def encode(record: dict) -> bytes:
        """One record as a log line (numpy scalars via ``json_default``).

        The bytes are ``json.dumps(record, default=json_default)``'s
        plus the newline.  A saved outcome's trace base64 skips the
        dump's escape scan: :func:`~repro.sim.codec.encode_saved_line`
        dumps the record without it and splices it in, the write-side
        mirror of :class:`~repro.sim.codec.SavedLineDecoder`; a line
        with no trace takes the plain dump after a few dict lookups.
        """
        return encode_saved_line(record)

    def prepare(self) -> None:
        """Cut a torn tail (even a torn header); add a header if empty."""
        try:
            truncate_partial_tail(self.path)
            empty = self.path.stat().st_size == 0
        except FileNotFoundError:
            empty = True
        if empty:
            self.append([self._header])

    def append(self, records: list[dict]) -> list[int]:
        """Append ``records`` as lines; return each line's byte length.

        A record that does not encode raises before any byte is written.
        """
        encoded = [self.encode(record) for record in records]
        with open(self.path, "ab") as handle:
            handle.writelines(encoded)
            handle.flush()
            os.fsync(handle.fileno())
        return [len(raw) for raw in encoded]

    @staticmethod
    def lines(handle, start: int = 0):
        """``(offset, raw)`` for each complete line of a log opened ``"rb"``.

        ``start`` must be a line boundary.  The log is read in
        :data:`_WALK_CHUNK` pieces and cut at ``\\n`` only, where
        ``bytes.splitlines`` would also cut at a ``\\r`` inside a
        damaged line; a torn tail (no ``\\n``) is not yielded.
        """
        handle.seek(start)
        offset = start
        # The pieces read so far of a line that spans chunks.
        head: list[bytes] = []
        while chunk := handle.read(_WALK_CHUNK):
            begin = 0
            while end := chunk.find(b"\n", begin) + 1:
                raw = chunk[begin:end]
                if head:
                    head.append(raw)
                    raw = b"".join(head)
                    head.clear()
                yield offset, raw
                offset += len(raw)
                begin = end
            if begin < len(chunk):
                head.append(chunk[begin:])

    def replace(self, raw_lines) -> None:
        """Publish the header plus encoded ``raw_lines`` atomically.

        Tempfile, fsync, ``os.replace``: readers see the old log or the
        new one, never a mix.  The new log keeps the old one's mode,
        not ``mkstemp``'s 0600.
        """
        mode = stat.S_IMODE(self.path.stat().st_mode)
        fd, temp_path = tempfile.mkstemp(
            prefix=f"{self.path.name}.", suffix=".tmp", dir=self.path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self.encode(self._header))
                handle.writelines(raw_lines)
                handle.flush()
                os.fsync(handle.fileno())
            os.chmod(temp_path, mode)
            os.replace(temp_path, self.path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise


def _checked_outcome(data: dict, where: str) -> dict:
    """One journaled outcome, checked for replay; raises naming ``where``.

    The fingerprint must be a string and the attempt count a positive
    int; the result must decode and the telemetry pass the one check
    (:func:`~repro.sim.codec.check_saved_outcome`), whose checked
    payload the entry gains as ``saved``.
    """
    fingerprint = data.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise CheckpointError(
            f"{where}: outcome has fingerprint {fingerprint!r}, not a string"
        )
    attempts = data.get("attempts", 1)
    if type(attempts) is not int or attempts < 1:
        raise CheckpointError(
            f"{where}: outcome has attempt count {attempts!r}"
        )
    try:
        data["saved"] = check_saved_outcome(data)
    except CodecError as error:
        raise CheckpointError(
            f"{where}: saved outcome does not replay ({error})"
        ) from error
    return data


def load_checkpoint(path: str | Path) -> dict[str, list[dict]]:
    """Saved outcomes of a journal, keyed by fingerprint (a multiset).

    Returns ``{fingerprint: [entry, ...]}`` in journal order; resume
    pops one entry per matching spec.  Every outcome is checked here,
    once, before any spec runs: each entry comes back as journaled,
    plus the checked :class:`~repro.sim.codec.SavedTelemetry` the fold
    reads under ``saved``.  A missing file is an empty
    checkpoint.  The torn tail (crash mid-write) is discarded; a
    complete line that does not parse, is not a header or an outcome,
    or holds an outcome that would not replay, anywhere, or a schema
    mismatch raises :class:`CheckpointError` naming the file (and the
    line).
    """
    path = Path(path)
    if not path.exists():
        return {}
    saved: dict[str, list[dict]] = {}
    with path.open("rb") as handle:
        lines = [line for _, line in AppendLog.lines(handle)]
    header_seen = False
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        where = f"{path}:{number}"
        try:
            data = json.loads(stripped)
        except ValueError as error:  # bad JSON or bad UTF-8
            raise CheckpointError(
                f"{where}: corrupt journal line ({error})"
            ) from error
        if not isinstance(data, dict):
            raise CheckpointError(
                f"{where}: journal line is a {type(data).__name__}, "
                f"not an object"
            )
        kind = data.get("type")
        if kind == "header":
            schema = data.get("schema")
            if schema != SWEEP_SCHEMA:
                raise CheckpointError(
                    f"{path}: schema {schema!r} is not {SWEEP_SCHEMA!r}"
                )
            header_seen = True
        elif kind == "outcome":
            if not header_seen:
                raise CheckpointError(f"{path}: outcome before header")
            entry = _checked_outcome(data, where)
            saved.setdefault(entry["fingerprint"], []).append(entry)
        else:
            raise CheckpointError(
                f"{where}: unknown journal line type {kind!r}"
            )
    if lines and not header_seen:
        raise CheckpointError(f"{path}: missing {SWEEP_SCHEMA} header")
    return saved
