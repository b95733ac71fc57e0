"""The sweep settlement ledger: where every sweep's outcomes settle.

The local executor (:mod:`repro.sim.parallel`: serial, pooled,
lane-batched, fail-fast or fault-tolerant) and the shard coordinator
(:mod:`repro.sim.distributed.coordinator`) decide *how* specs run; both
settle outcomes through one :class:`SweepLedger`, which applies the
rules they share: resume and cache replay (:meth:`~SweepLedger.open`),
journal-then-cache durability before an outcome is reported
(:meth:`~SweepLedger.settle_success`), failure charging
(:meth:`~SweepLedger.charge_failure`), the spec-order telemetry fold
that makes every backend's retained trace equal a serial sweep's
(:meth:`~SweepLedger.fold`), and strict aggregation
(:meth:`~SweepLedger.raise_if_strict`).

One replay rule covers the journal and the cache: a saved entry
without a telemetry payload (written by a sweep that had no sink) does
not replay into an enabled sink -- the spec re-runs and its new outcome
is journaled.  The journal wins over the cache when both could replay.

``family`` names the orchestration events (``"sweep"`` locally,
``"shard"`` on a coordinator).  The ledger does no locking of its own:
the coordinator calls it under its own lock.

Every saved payload is checked once, where it enters the ledger: a
cache hit in :meth:`~repro.sim.cache.ResultCache.lookup`, a journal
entry in :func:`~repro.sim.checkpoint.load_checkpoint` (so a damaged
journal raises :class:`~repro.errors.CheckpointError` before any spec
runs) and a worker's payload in the coordinator's ``settle``.  The
ledger holds the checked payloads
(:class:`~repro.sim.codec.SavedTelemetry`), folds them without
rescanning, and journals or caches their wire form verbatim.

The codec steps keep their old lookup sites, where a profiler patches
them (``benchmarks/e2e/tracer.py``): live results are encoded inside
the journal's and the cache's own ``append_outcome`` / ``store``, and
the decode and the folds are looked up on :mod:`repro.sim.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, SweepError
from repro.sim.checkpoint import (
    CheckpointJournal,
    load_checkpoint,
    spec_fingerprint,
)
from repro.sim.codec import SavedTelemetry
from repro.sim.results import RunResult


@dataclass(frozen=True)
class SpecFailure:
    """The captured cause of one spec's permanent failure.

    ``kind`` is the failure channel: ``"error"`` (the spec raised),
    ``"timeout"`` (exceeded the per-spec wall clock), or ``"crash"``
    (the worker process died, e.g. ``BrokenProcessPool``).
    """

    kind: str
    exc_type: str
    message: str
    traceback: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.kind}] {self.exc_type}: {self.message}"


@dataclass
class SpecOutcome:
    """One spec's structured sweep outcome: a result or a captured error."""

    spec: "WorkSpec"  # noqa: F821 - repro.sim.parallel.WorkSpec
    index: int
    result: RunResult | None = None
    error: SpecFailure | None = None
    #: Attempts actually executed (1 = first try succeeded).  Resumed
    #: outcomes report the journaled count.
    attempts: int = 1
    #: True when the outcome was loaded from the checkpoint journal
    #: instead of being re-run.
    from_checkpoint: bool = False
    #: True when the outcome was replayed from the cross-sweep result
    #: cache (:mod:`repro.sim.cache`) instead of being executed.
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """Whether the spec produced a result."""
        return self.error is None


def _take_entry(entries: list[dict] | None, need_telemetry: bool):
    """Pop the first journal entry that may replay, or ``None``.

    Each spec consumes one entry, so duplicate specs each take their
    own; an entry without telemetry stays put when a trace is needed.
    """
    for position, entry in enumerate(entries or ()):
        if entry.get("telemetry") is not None or not need_telemetry:
            return entries.pop(position)
    return None


class SweepLedger:
    """Settlement state of one sweep: outcomes, journal, cache, telemetry.

    ``options`` is the sweep's :class:`~repro.sim.parallel.SweepOptions`
    (checkpoint, retry and strict settings); ``cache`` an open
    :class:`~repro.sim.cache.ResultCache` or ``None``.  Fingerprints and
    cache keys are computed on first use, so a sweep with no journal,
    cache or cluster hashes nothing.
    """

    def __init__(self, specs, sink, options, cache=None, family="sweep"):
        self.specs = specs
        self.sink = sink
        self.options = options
        self.cache = cache
        self.family = family
        n = len(specs)
        self.outcomes: list[SpecOutcome | None] = [None] * n
        #: Run-local telemetry of live successes, by index.
        self.locals: list = [None] * n
        #: Checked telemetry payloads of replayed and wire outcomes.
        self._saved: list[SavedTelemetry | None] = [None] * n
        self._fingerprints: list[str | None] = [None] * n
        self._cache_keys: list[str | None] = [None] * n
        self._journal: CheckpointJournal | None = None
        self._folded = False
        self.resumed = 0
        self.cached = 0
        self.executed = 0

    def fingerprint(self, index: int) -> str:
        """The spec's checkpoint fingerprint (hashed once, on demand)."""
        fingerprint = self._fingerprints[index]
        if fingerprint is None:
            fingerprint = spec_fingerprint(self.specs[index])
            self._fingerprints[index] = fingerprint
        return fingerprint

    def cache_key(self, index: int) -> str:
        """The spec's result-cache key (hashed once, on demand)."""
        key = self._cache_keys[index]
        if key is None:
            from repro.sim.cache import cache_key

            key = self._cache_keys[index] = cache_key(self.specs[index])
        return key

    # -- opening: resume and cache replay ------------------------------------
    def open(self) -> list[int]:
        """Pre-settle resumed and cached specs; the indices left to run.

        Opens the journal (fresh, or appending on resume).  Each spec
        takes the first journal entry it can replay, else a cache hit
        it can replay, else it runs.  A spec that fails
        :meth:`~repro.sim.parallel.WorkSpec.check` replays from neither,
        so it fails as it would with nothing saved.  Emits
        ``{family}.resume`` and ``cache.hit`` when either source
        answered anything.
        """
        options = self.options
        saved: dict[str, list[dict]] = {}
        if options.checkpoint_path is not None:
            if options.resume:
                saved = load_checkpoint(options.checkpoint_path)
            self._journal = CheckpointJournal.open(
                options.checkpoint_path, resume=options.resume
            )
        # The one replay rule: a trace-less entry cannot reproduce the
        # run's telemetry, so it only replays into a disabled sink.
        need_telemetry = self.sink.enabled
        todo: list[int] = []
        for index, spec in enumerate(self.specs):
            try:
                spec.check()
            except ConfigError:
                todo.append(index)
                continue
            entry = (
                _take_entry(saved.get(self.fingerprint(index)), need_telemetry)
                if saved
                else None
            )
            if entry is not None:
                self._replay(index, entry, from_checkpoint=True)
                self.resumed += 1
                if self.cache is not None:
                    self.cache.store_payload(
                        self.cache_key(index),
                        spec,
                        entry["result"],
                        entry["telemetry"],
                        attempts=entry.get("attempts", 1),
                        fingerprint=self.fingerprint(index),
                    )
                continue
            if self.cache is not None:
                entry = self.cache.lookup(
                    self.cache_key(index), need_telemetry=need_telemetry
                )
                if entry is not None:
                    self._replay(index, entry, from_cache=True)
                    self.cached += 1
                    if self._journal is not None:
                        self._journal.append_payload(
                            self.fingerprint(index),
                            spec,
                            entry.get("attempts", 1),
                            entry["result"],
                            entry["telemetry"],
                        )
                    continue
            todo.append(index)
        total = len(self.specs)
        if self.resumed and self.sink.enabled:
            self.sink.event(
                f"{self.family}.resume",
                -1,
                f"resumed {self.resumed} of {total} specs from checkpoint",
                resumed=self.resumed,
                total=total,
                path=str(options.checkpoint_path),
            )
        if self.cached and self.sink.enabled:
            self.sink.event(
                "cache.hit",
                -1,
                f"result cache replayed {self.cached} of {total} specs "
                f"({len(todo)} executed)",
                hits=self.cached,
                misses=len(todo),
                total=total,
                path=str(self.cache.directory),
            )
        return todo

    def _replay(self, index: int, entry: dict, **source) -> None:
        # Function-level import: repro.sim.parallel builds on this module.
        from repro.sim import parallel

        self.outcomes[index] = SpecOutcome(
            spec=self.specs[index],
            index=index,
            result=parallel.result_from_dict(entry["result"]),
            attempts=entry.get("attempts", 1),
            **source,
        )
        self._saved[index] = entry["saved"]

    # -- settlement ----------------------------------------------------------
    def settle_success(
        self,
        index: int,
        attempts: int,
        result: RunResult,
        local=None,
        payloads: tuple[dict, SavedTelemetry | None] | None = None,
    ) -> None:
        """Settle one executed spec: outcome, then journal, then cache.

        A local run passes its run-local ``local`` telemetry (``None``
        when it recorded straight into the sink or telemetry is off);
        a coordinator passes the worker's ``(result, telemetry)``
        payloads: the result's codec dict and the telemetry as
        :func:`~repro.sim.codec.check_saved_telemetry` returned it.
        Both are persisted verbatim.
        """
        spec = self.specs[index]
        self.outcomes[index] = SpecOutcome(
            spec=spec, index=index, result=result, attempts=attempts
        )
        self.executed += 1
        if payloads is None:
            self.locals[index] = local
            if self._journal is not None:
                self._journal.append_outcome(
                    self.fingerprint(index), spec, attempts, result, local
                )
            if self.cache is not None:
                self.cache.store(
                    self.cache_key(index),
                    spec,
                    result,
                    local,
                    attempts=attempts,
                )
            return
        result_payload, saved = payloads
        self._saved[index] = saved
        telemetry_payload = None if saved is None else saved.payload
        if self._journal is not None:
            self._journal.append_payload(
                self.fingerprint(index),
                spec,
                attempts,
                result_payload,
                telemetry_payload,
            )
        if self.cache is not None:
            self.cache.store_payload(
                self.cache_key(index),
                spec,
                result_payload,
                telemetry_payload,
                attempts=attempts,
                fingerprint=self.fingerprint(index),
            )

    def charge_failure(
        self,
        index: int,
        attempt: int,
        kind: str,
        exc_type: str,
        message: str,
        traceback: str = "",
        worker: str | None = None,
    ) -> float | None:
        """Charge one failed attempt (0-based ``attempt``).

        Returns the backoff in seconds before the retry, or ``None``
        once the retry budget is spent and the spec has settled as a
        permanent :class:`SpecFailure`.  ``worker`` names the shard
        worker that reported the failure, if any.
        """
        spec = self.specs[index]
        retry = self.options.retry
        on = {} if worker is None else {"worker": worker}
        if attempt < retry.max_retries:
            if self.sink.enabled:
                where = "" if worker is None else f" on {worker}"
                self.sink.event(
                    f"{self.family}.retry",
                    index,
                    f"{spec.benchmark}/{spec.policy} attempt "
                    f"{attempt + 1} failed ({kind}){where}; retrying",
                    failure_kind=kind,
                    attempt=attempt + 1,
                    exc_type=exc_type,
                    **on,
                )
            return retry.delay(attempt + 1)
        self.outcomes[index] = SpecOutcome(
            spec=spec,
            index=index,
            error=SpecFailure(
                kind=kind,
                exc_type=exc_type,
                message=message,
                traceback=traceback,
            ),
            attempts=attempt + 1,
        )
        if self.sink.enabled:
            self.sink.event(
                f"{self.family}.spec_failed",
                index,
                f"{spec.benchmark}/{spec.policy} failed permanently "
                f"after {attempt + 1} attempt(s) ({kind})",
                failure_kind=kind,
                attempts=attempt + 1,
                exc_type=exc_type,
            )
        return None

    # -- closing -------------------------------------------------------------
    def fold(self, stop: int | None = None) -> None:
        """Fold settled successes' telemetry into the sink, in spec order.

        Deferred to the end of the sweep (idempotent; also run on an
        interrupt or an abort): retries, pool re-runs and shard workers
        settle out of spec order, and only a strict in-spec-order fold
        reproduces the serial emit sequence the decimation/parity
        guarantees rest on.  Failed specs contribute nothing.  ``stop``
        is the fail-fast cut-off: nothing at or past it is folded.  Once
        every spec has settled, the sink's context is the last spec's,
        as after a serial sweep.
        """
        if self._folded or not self.sink.enabled:
            return
        self._folded = True
        from repro.sim import parallel
        for index in range(len(self.specs) if stop is None else stop):
            outcome = self.outcomes[index]
            if outcome is None or outcome.error is not None:
                continue
            if self.locals[index] is not None:
                parallel.merge_telemetry(self.sink, self.locals[index])
            else:
                # A replayed or wire payload; None (nothing to fold)
                # for a spec that recorded straight into the sink.
                parallel.fold_saved_telemetry(self.sink, self._saved[index])
        if self.specs and all(o is not None for o in self.outcomes):
            last = self.specs[-1]
            self.sink.set_context(last.benchmark, last.policy)

    def raise_if_strict(self) -> None:
        """Under ``options.strict``, raise one aggregated ``SweepError``."""
        failures = [
            o for o in self.outcomes if o is not None and o.error is not None
        ]
        if not (failures and self.options.strict):
            return
        detail = "; ".join(
            f"{o.spec.benchmark}/{o.spec.policy}[seed={o.spec.seed}] "
            f"{o.error}"
            for o in failures[:5]
        )
        if len(failures) > 5:
            detail += f"; ... {len(failures) - 5} more"
        raise SweepError(
            f"{len(failures)} of {len(self.specs)} specs failed "
            f"permanently: {detail}",
            failures,
        )

    def close(self, stop: int | None = None) -> None:
        """:meth:`fold`, then close the journal and flush the cache.

        Idempotent.  The journal closes and the cache flushes even if
        the fold raises.
        """
        try:
            self.fold(stop)
        finally:
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            if self.cache is not None:
                self.cache.flush()
