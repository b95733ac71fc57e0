"""The parallel sweep executor: fan (benchmark x policy x seed) matrices
out over worker processes, tolerating worker crashes along the way.

The simulating experiment drivers build :class:`WorkSpec` lists and
run them here (directly or through :func:`repro.sim.sweep.run_suite`;
docs/performance.md lists the five that do not), and a full paper
reproduction runs hundreds of independent simulations.  Each run is
CPU-bound pure Python/NumPy with no shared mutable state, which makes
the matrix embarrassingly parallel -- but only if the observability
guarantees survive the fan-out.  This module provides:

* :class:`WorkSpec` -- a picklable, self-contained description of one
  run (names + frozen config dataclasses, never live objects), so a
  worker process can rebuild the exact engine the serial path would
  have built;
* :func:`run_specs` -- the fail-fast sweep: execute a list of specs,
  serially or on a :class:`~concurrent.futures.ProcessPoolExecutor`,
  folding each worker's local telemetry back into the sink **in spec
  order**, and raise the earliest failing spec's own exception;
* :func:`run_outcomes` + :class:`SweepOptions` / :class:`RetryPolicy` --
  the fault-tolerant sweep: per-spec wall-clock timeouts,
  bounded deterministic-backoff retries, ``BrokenProcessPool`` recovery
  (rebuild the pool, re-run only the lost in-flight specs, degrade to
  in-process serial execution after repeated pool deaths), failure
  isolation as structured :class:`~repro.sim.ledger.SpecOutcome`
  values, and a crash-safe checkpoint journal
  (:mod:`repro.sim.checkpoint`) for ``--resume``;
* :func:`execute_payloads` -- one attempt of a shard worker's specs
  (:mod:`repro.sim.distributed.worker`), as settled payloads;
* :func:`matrix_specs` -- build the (benchmark x policy x seed) spec
  list in the canonical benchmark-major order used by ``run_suite``;
* :class:`SweepDefaults` + :func:`sweep_defaults` +
  :func:`resolve_sweep` -- one frozen value for how sweeps run (jobs,
  batch, options, cluster, cache), installed for a block so a
  command line reaches every ``run_suite`` call inside table modules
  without threading parameters through each one, and the one function
  that settles a sweep's settings: explicit argument, then the
  installed defaults, then ``REPRO_CACHE``, then built-ins.

The three entry points that execute (:func:`run_specs`,
:func:`run_outcomes` and :func:`execute_payloads`) drive one executor,
``_OutcomeRunner``, which owns the only worker pool: lane batching
regroups its queue and fail-fast is a mode of it, not another loop.
Every task it runs, on the pool or in-process, goes through one entry
point, ``_run_task``: a lone spec runs on the scalar (or multicore)
engine and a group of two or more on the lane kernel, decided by the
task's size alone, and both return one settled payload per spec.
Outcomes settle through a :class:`~repro.sim.ledger.SweepLedger`, the
same one the shard coordinator uses: it pre-settles resumed specs and
cache hits, journals and caches each success, charges failures, and
folds telemetry in spec order.

Determinism and telemetry parity
--------------------------------

Results are returned in spec order regardless of completion order, and
every engine is seeded from its spec alone, so ``jobs=N`` is
bit-identical to ``jobs=1`` (property-tested).  Telemetry parity works
because trace decimation is a pure function of the emit sequence:
workers record into a *retain-everything* local
:class:`~repro.telemetry.core.Telemetry` (huge capacity, no decimation)
and the parent re-emits each worker's records onto the sink via
:func:`~repro.telemetry.core.merge_telemetry` in spec order -- the sink
therefore sees the exact emit sequence a serial sweep would have
produced, and retains the exact same records, events, and metrics.  The
one documented difference: profiler *span* timings are per-process
wall-clock and are deliberately not merged, so a sweep that folds
run-local telemetry carries the parent's spans only (no per-run
``engine.run`` spans).  Only an in-process, unbatched, uncached
fail-fast sweep records straight into the sink and keeps them; batched
or cached sweeps fold run-local telemetry even at ``jobs=1``.

The fault-tolerant layer preserves the same guarantee: a failed attempt
contributes *no* telemetry (only the final successful attempt of each
spec is folded, in spec order), and a ``--resume`` sweep re-folds the
journaled telemetry of already-completed specs in spec order, so its
results and retained traces are bit-identical to an uninterrupted sweep
(property-tested).  Orchestration diagnostics -- ``sweep.retry``,
``sweep.timeout``, ``sweep.pool_crash``, ``sweep.degraded``,
``sweep.spec_failed``, ``sweep.resume`` events on the ``repro.trace/v1``
stream -- are the deliberate exception: they record the interruption
history itself and are excluded from the parity guarantee (see
docs/robustness.md).
"""

from __future__ import annotations

import os
import pickle
import time
import traceback as traceback_module
from collections import deque
from contextlib import contextmanager
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
)
from concurrent.futures import (
    TimeoutError as FuturesTimeoutError,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.config import (
    DTMConfig,
    FailsafeConfig,
    MachineConfig,
    TelemetryConfig,
    ThermalConfig,
)
from repro.control.pid import AntiWindup
from repro.errors import ConfigError, SweepError
from repro.faults import FaultSchedule
from repro.sim.batch import (
    LaneOutcome,
    batch_compatibility_key,
    run_spec_lanes,
    validate_batch,
)
# Re-exported: repro.sim.ledger looks these three up here at call time.
from repro.sim.codec import fold_saved_telemetry as fold_saved_telemetry
from repro.sim.codec import result_from_dict as result_from_dict
from repro.sim.ledger import SpecOutcome, SweepLedger
from repro.sim.results import RunResult
from repro.sim.sweep import (
    DEFAULT_INSTRUCTIONS,
    _validate_instructions,
    build_engine,
)
from repro.telemetry.core import Telemetry, ensure_telemetry
from repro.telemetry.core import merge_telemetry as merge_telemetry
from repro.thermal.floorplan import Floorplan
from repro.thermal.sensors import SensorConfig

#: Worker-local trace/event capacity: effectively "retain everything".
#: Workers must not decimate or drop, because the parent re-emits their
#: records onto the sink, whose own retention policy then applies --
#: decimating twice would diverge from the serial emit sequence.
_RETAIN_ALL = 1 << 30

def _validate_jobs(jobs) -> None:
    # bool is an int subclass; jobs=True used to slip through and
    # silently mean "one worker".
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 0:
        raise ConfigError(f"jobs must be a non-negative int, got {jobs!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic (jitter-free) backoff.

    ``delay(k)`` for the k-th retry (1-based) is
    ``backoff_seconds * backoff_multiplier**(k-1)``, capped at
    ``max_backoff_seconds``.  No randomness: two identical sweeps retry
    on an identical schedule, keeping fault-injection tests and resumed
    sweeps reproducible.  The default (``max_retries=0``) never
    retries; failures are still isolated per spec.
    """

    max_retries: int = 0
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 60.0

    def __post_init__(self) -> None:
        if (
            isinstance(self.max_retries, bool)
            or not isinstance(self.max_retries, int)
            or self.max_retries < 0
        ):
            raise ConfigError(
                f"max_retries must be a non-negative int, "
                f"got {self.max_retries!r}"
            )
        for name, floor in (
            ("backoff_seconds", 0),
            ("backoff_multiplier", 1),
            ("max_backoff_seconds", 0),
        ):
            value = getattr(self, name)
            if not value >= floor:
                raise ConfigError(
                    f"{name} must be >= {floor}, got {value!r}"
                )

    def delay(self, retry_number: int) -> float:
        """Backoff before the given retry (1-based), in seconds."""
        if retry_number < 1:
            raise ConfigError("retry_number is 1-based")
        if self.backoff_seconds <= 0:
            return 0.0
        return min(
            self.max_backoff_seconds,
            self.backoff_seconds
            * self.backoff_multiplier ** (retry_number - 1),
        )


@dataclass(frozen=True)
class SweepOptions:
    """Fault-tolerance configuration for one sweep.

    * ``retry`` -- per-spec retry budget and backoff schedule.
    * ``timeout_seconds`` -- per-spec wall clock, measured from the
      moment the spec starts on a worker.  Enforced only when running
      on a process pool (a hung worker is terminated and the pool
      rebuilt); in-process serial execution cannot preempt a hung
      spec, so ``jobs=1`` with a timeout runs on a one-worker pool.
    * ``checkpoint_path`` / ``resume`` -- the crash-safe journal (see
      :mod:`repro.sim.checkpoint`).  ``resume=True`` skips specs whose
      outcomes the journal already holds; without it an existing
      journal is replaced.
    * ``strict`` -- raise one aggregated
      :class:`~repro.errors.SweepError` after the sweep if any spec
      failed permanently.  The default isolates failures as
      ``SpecOutcome.error`` and keeps the completed results.
    * ``max_pool_rebuilds`` -- pool deaths (worker crash or timeout
      kill) tolerated before degrading to in-process serial execution
      for the remainder of the sweep -- the sweep-level analogue of
      the failsafe guard's open-loop fallback: keep producing results
      even when the fancy machinery is on fire.  Note the degraded
      mode cannot enforce timeouts and a worker crash becomes fatal.
    * ``window_factor`` -- bound on in-flight submissions: at most
      ``window_factor * jobs`` tasks (a lane group counts once), so
      multi-thousand-spec matrices do not hold every pickled spec and
      pending result in memory.

    The lane-batch width is not an option: it is the sweep's ``batch``
    (see :class:`SweepDefaults`).  A batched group's wall-clock timeout
    allowance is ``timeout_seconds`` *per lane*; a group that exceeds it
    is unattributable to one lane, so its lanes requeue uncharged as
    batching-exempt singletons.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout_seconds: float | None = None
    checkpoint_path: str | Path | None = None
    resume: bool = False
    strict: bool = False
    max_pool_rebuilds: int = 3
    window_factor: int = 4

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and not (
            self.timeout_seconds > 0
        ):
            raise ConfigError(
                f"timeout_seconds must be positive or None, "
                f"got {self.timeout_seconds!r}"
            )
        if self.resume and self.checkpoint_path is None:
            raise ConfigError("resume=True requires a checkpoint_path")
        if (
            isinstance(self.max_pool_rebuilds, bool)
            or not isinstance(self.max_pool_rebuilds, int)
            or self.max_pool_rebuilds < 0
        ):
            raise ConfigError(
                f"max_pool_rebuilds must be a non-negative int, "
                f"got {self.max_pool_rebuilds!r}"
            )
        if (
            isinstance(self.window_factor, bool)
            or not isinstance(self.window_factor, int)
            or self.window_factor < 1
        ):
            raise ConfigError(
                f"window_factor must be a positive int, "
                f"got {self.window_factor!r}"
            )


@dataclass(frozen=True)
class SweepDefaults:
    """How a sweep runs when its call leaves a setting out.

    * ``jobs`` -- worker processes (``0`` = all cores; ``1`` runs
      in-process).
    * ``batch`` -- lane-batch width (see :mod:`repro.sim.batch`);
      ``1`` = no lane batching.
    * ``options`` -- the fault-tolerant :class:`SweepOptions`, or
      ``None`` for the fail-fast sweep.
    * ``cluster`` -- a :class:`~repro.sim.distributed.ClusterConfig`
      to serve specs to distributed workers, or ``None`` to run here.
    * ``cache`` -- a result-cache directory (validated, created and
      made absolute on construction), ``False`` to disable caching
      even when ``REPRO_CACHE`` is set, or ``None`` to defer to
      ``REPRO_CACHE``.  A *path*, never an open store: each sweep opens
      its own, so no store file handle crosses a pool fork.

    One value is installed at a time, through :func:`sweep_defaults`;
    :func:`resolve_sweep` reads it.
    """

    jobs: int = 1
    batch: int = 1
    options: SweepOptions | None = None
    cluster: object = None
    cache: str | bool | None = None

    def __post_init__(self) -> None:
        _validate_jobs(self.jobs)
        validate_batch(self.batch)
        if self.options is not None and not isinstance(
            self.options, SweepOptions
        ):
            raise ConfigError(
                f"options must be a SweepOptions or None, "
                f"got {self.options!r}"
            )
        if self.cluster is not None:
            # Function-level import: repro.sim.distributed builds on
            # this module, so a top-level import would be circular.
            from repro.sim.distributed.protocol import ClusterConfig

            if not isinstance(self.cluster, ClusterConfig):
                raise ConfigError(
                    f"cluster must be a ClusterConfig or None, "
                    f"got {self.cluster!r}"
                )
        if self.cache is None or self.cache is False:
            return
        from repro.sim.cache import ResultCache, resolve_cache_dir

        if isinstance(self.cache, ResultCache):
            raise ConfigError(
                "default cache must be a directory path, not an open "
                "ResultCache (open handles must not cross pool forks); "
                "pass cache=... per sweep for an explicit store"
            )
        object.__setattr__(self, "cache", str(resolve_cache_dir(self.cache)))


#: The installed :class:`SweepDefaults` (see :func:`sweep_defaults`).
_DEFAULTS = SweepDefaults()


def _install(defaults: SweepDefaults) -> SweepDefaults:
    """Put ``defaults`` in the slot; return what it held before."""
    global _DEFAULTS
    if not isinstance(defaults, SweepDefaults):
        raise ConfigError(f"expected SweepDefaults, got {defaults!r}")
    previous, _DEFAULTS = _DEFAULTS, defaults
    return previous


def current_sweep_defaults() -> SweepDefaults:
    """The installed :class:`SweepDefaults`."""
    return _DEFAULTS


@contextmanager
def sweep_defaults(defaults: SweepDefaults):
    """Install ``defaults`` for the body; restore the previous value after.

    Command lines install their flags here, so every ``run_suite`` /
    ``run_specs`` call inside that does not pass a setting explicitly
    runs with the command line's.  The previous value comes back on
    return and on exceptions.
    """
    previous = _install(defaults)
    try:
        yield defaults
    finally:
        _install(previous)


@dataclass(frozen=True)
class ResolvedSweep:
    """One sweep's effective settings (see :func:`resolve_sweep`)."""

    jobs: int
    batch: int
    options: SweepOptions | None
    cluster: object
    cache: object  # an open ResultCache, or None


def resolve_sweep(
    jobs: int | None = None,
    batch: int | None = None,
    options: SweepOptions | None = None,
    cluster=None,
    cache=None,
    tasks: int | None = None,
) -> ResolvedSweep:
    """The one place a sweep's settings are decided.

    Each setting is the explicit argument, else the installed
    :class:`SweepDefaults`; for ``cache`` the ``REPRO_CACHE``
    environment variable comes next, and ``False`` at any link stops
    the chain (that is what makes ``--no-cache`` meaningful under
    ``REPRO_CACHE``).  ``jobs=0`` means all cores, and with ``tasks``
    the worker count is clamped to ``[1, tasks]`` so a two-run sweep
    never spawns eight idle workers.  A cache path opens a fresh
    :class:`~repro.sim.cache.ResultCache`; an open one passes through.
    """
    defaults = _DEFAULTS
    if jobs is None:
        jobs = defaults.jobs
    _validate_jobs(jobs)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if tasks is not None:
        # Same bool-is-an-int edge as jobs: tasks=True used to clamp
        # every sweep to one worker.
        if isinstance(tasks, bool) or not isinstance(tasks, int):
            raise ConfigError(f"tasks must be an int, got {tasks!r}")
        jobs = max(1, min(jobs, tasks))
    if batch is None:
        batch = defaults.batch
    validate_batch(batch)
    if cache is None:
        cache = defaults.cache
    if cache is None:
        cache = os.environ.get("REPRO_CACHE") or None
    if cache is False:
        cache = None
    elif cache is not None:
        from repro.sim.cache import ResultCache

        if not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
    return ResolvedSweep(
        jobs=jobs,
        batch=batch,
        options=defaults.options if options is None else options,
        cluster=defaults.cluster if cluster is None else cluster,
        cache=cache,
    )


@dataclass(frozen=True)
class WorkSpec:
    """One self-contained simulation: everything a worker needs, by value.

    Only names and frozen config dataclasses -- never live policy,
    sensor, or engine objects -- so the spec pickles cheaply, hashes
    by content (:func:`~repro.sim.checkpoint.spec_fingerprint`), and
    every run rebuilds its engine through the one factory,
    :func:`~repro.sim.sweep.build_engine`, wherever it executes.
    """

    benchmark: str
    policy: str
    instructions: float = DEFAULT_INSTRUCTIONS
    seed: int = 0
    floorplan: Floorplan | None = None
    machine: MachineConfig | None = None
    thermal_config: ThermalConfig | None = None
    dtm_config: DTMConfig | None = None
    record_history: bool = False
    anti_windup: AntiWindup = AntiWindup.CONDITIONAL
    setpoint: float | None = None
    fault_schedule: FaultSchedule | None = None
    failsafe: FailsafeConfig | None = None
    #: The sensor model (``None``: the ideal sensor); each run builds
    #: its own, so a seeded noise stream starts afresh per run.
    sensor: SensorConfig | None = None
    #: Wraps the named policy in a
    #: :class:`~repro.dtm.policies.HierarchicalPolicy` whose emergency
    #: backup engages at this temperature; the result's
    #: ``extra["backup_engagements"]`` counts its engagements.
    backup_trigger: float | None = None
    #: Instructions run before measurement starts (see
    #: :meth:`~repro.sim.fast.FastEngine.run`).
    warmup_instructions: float = 0
    #: Non-empty marks a *multicore* spec: per-core benchmark names run
    #: on a :class:`~repro.multicore.engine.MulticoreEngine` (tiled
    #: floorplan, ``policy`` shared by every core, optional
    #: ``coordinator``).  Multicore specs never lane-batch but ride the
    #: same orchestrated executor (jobs, retries, checkpointing).
    core_benchmarks: tuple[str, ...] = ()
    #: Coordinator name for multicore specs (e.g. ``"proportional"``).
    coordinator: str | None = None
    #: Extra identifying payload carried through to the caller (e.g. a
    #: per-driver label); not consumed by the executor itself.
    tag: tuple = field(default_factory=tuple)

    @property
    def key(self) -> tuple[str, str, int]:
        """The canonical (benchmark, policy, seed) matrix coordinate."""
        return (self.benchmark, self.policy, self.seed)

    def check(self) -> None:
        """The spec's by-value checks: :class:`ConfigError` on a field
        its kind does not use (a single-core ``coordinator``, which
        arbitrates between cores, or a multicore single-core field)."""
        if not self.core_benchmarks:
            if self.coordinator is not None:
                raise ConfigError(
                    f"single-core specs do not support coordinator="
                    f"{self.coordinator!r}; set core_benchmarks"
                )
            return
        for name, value, default in (
            ("floorplan", self.floorplan, None),
            ("fault_schedule", self.fault_schedule, None),
            ("setpoint", self.setpoint, None),
            ("record_history", self.record_history, False),
            ("anti_windup", self.anti_windup, AntiWindup.CONDITIONAL),
            ("sensor", self.sensor, None),
            ("backup_trigger", self.backup_trigger, None),
            ("warmup_instructions", self.warmup_instructions, 0),
        ):
            if value != default:
                raise ConfigError(
                    f"multicore specs do not support {name}={value!r}"
                )


def matrix_specs(
    benchmarks: Iterable[str],
    policies: Iterable[str],
    seeds: Iterable[int] = (0,),
    include_baseline: bool = False,
    **common,
) -> list[WorkSpec]:
    """Specs for the full matrix in canonical benchmark-major order.

    The order (benchmark, then policy, then seed) matches the serial
    ``run_suite`` loop, so telemetry folded back in spec order
    reproduces the serial emit sequence.  ``common`` keyword arguments
    (``instructions``, configs, ...) are applied to every spec.
    """
    chosen_policies = list(policies)
    if include_baseline and "none" not in chosen_policies:
        chosen_policies.insert(0, "none")
    return [
        WorkSpec(benchmark=benchmark, policy=policy, seed=seed, **common)
        for benchmark in benchmarks
        for policy in chosen_policies
        for seed in seeds
    ]


def _worker_telemetry_config(
    sink_config: TelemetryConfig | None,
) -> TelemetryConfig:
    """Retain-everything local telemetry for one worker run.

    Profiling is off (spans are per-process and never merged); the
    sample-latency switch is inherited from the sink so the latency
    histogram sees the same number of observations as a serial sweep.
    """
    sample_latency = (
        sink_config.sample_latency if sink_config is not None else True
    )
    return TelemetryConfig(
        trace_capacity=_RETAIN_ALL,
        trace_mode="decimate",
        event_capacity=_RETAIN_ALL,
        profile=False,
        sample_latency=sample_latency,
    )


def _execute_multicore(spec: WorkSpec, telemetry):
    """Run one multicore spec on a :class:`MulticoreEngine`."""
    # Function-level import: repro.multicore builds on repro.sim.
    from repro.multicore.engine import MulticoreEngine

    spec.check()
    engine = MulticoreEngine(
        list(spec.core_benchmarks),
        policy=spec.policy,
        coordinator=spec.coordinator,
        machine=spec.machine,
        thermal_config=spec.thermal_config,
        dtm_config=spec.dtm_config,
        seed=spec.seed,
        failsafe=spec.failsafe,
        telemetry=telemetry,
    )
    return engine.run(instructions=spec.instructions)


def _execute(spec: WorkSpec, telemetry) -> RunResult:
    """Run one spec in-process against the given telemetry sink."""
    if spec.core_benchmarks:
        return _execute_multicore(spec, telemetry)
    instructions = _validate_instructions(spec.instructions)
    return build_engine(spec, telemetry).run(
        instructions=instructions,
        warmup_instructions=spec.warmup_instructions,
    )


def _picklable(error: BaseException) -> BaseException | None:
    """``error`` if it survives a pickle round trip, else ``None``."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return None
    return error


def _run_task(
    specs: Sequence[WorkSpec],
    telemetry_config: TelemetryConfig | None,
    sink=None,
) -> list[tuple]:
    """Run one task: a lone spec, or a group of compatible specs as lanes.

    The pool's only submit target and the in-process runner's only
    call (module-level, so it pickles by reference).  One spec runs
    through :func:`_execute` -- single-core or multicore -- and more
    than one through :func:`~repro.sim.batch.run_spec_lanes`.  Each
    run records into its own retain-everything local
    :class:`Telemetry` (``None`` with telemetry off) for the parent to
    fold; a lone spec given ``sink`` records straight into it instead.

    Returns one payload per spec, in spec order: ``("ok", result,
    local)`` or ``("error", exc_type, message, traceback, exception)``.
    Spec failures are settled here: the exception object rides along
    only when it survives pickling (else ``None``, leaving the
    strings), so one lane's unpicklable exception cannot poison the
    whole task's result transfer.
    """
    locals_ = [
        None if telemetry_config is None or sink is not None
        else Telemetry(telemetry_config)
        for _ in specs
    ]
    if len(specs) == 1:
        try:
            result = _execute(
                specs[0], sink if sink is not None else locals_[0]
            )
            outcomes = [LaneOutcome(result=result)]
        except Exception as error:
            outcomes = [LaneOutcome(error=error)]
    else:
        outcomes = run_spec_lanes(specs, locals_)
    return [
        ("ok", outcome.result, local)
        if outcome.error is None
        else (
            "error",
            type(outcome.error).__name__,
            str(outcome.error),
            "".join(traceback_module.format_exception(outcome.error)),
            _picklable(outcome.error),
        )
        for outcome, local in zip(outcomes, locals_)
    ]


class _RemoteTraceback(Exception):
    """A worker's traceback text, chained under its rebuilt exception."""

    def __str__(self) -> str:
        return self.args[0]


def execute_payloads(
    specs: Sequence[WorkSpec],
    jobs: int | None = None,
    batch: int | None = None,
    telemetry_config: TelemetryConfig | None = None,
) -> list[tuple]:
    """Run specs locally; one settled payload per spec, in spec order.

    The shard worker's execution entry point
    (:mod:`repro.sim.distributed.worker`): one attempt of every spec on
    the same executor as a local sweep, composing process-level
    ``jobs`` and lane-level ``batch``, but returning per-spec payload
    tuples instead of folding telemetry into a sink:
    ``("ok", result, local_telemetry)`` for successes, ``(kind,
    exc_type, message, traceback)`` for failures, where ``kind`` is the
    :class:`~repro.sim.ledger.SpecFailure` channel (``"error"`` or
    ``"crash"``).  Retry and backoff stay with the coordinator.

    A worker crash is isolated and charged to the spec that caused it,
    exactly as in :func:`run_outcomes`: a crashing spec becomes one
    ``"crash"`` payload instead of being re-run in the calling process
    (only more than ``max_pool_rebuilds`` unattributed pool deaths in
    one call degrade the rest to in-process execution).
    """
    specs = list(specs)
    sweep = resolve_sweep(jobs, batch, cache=False, tasks=len(specs))
    runner = _OutcomeRunner(
        specs,
        sweep.jobs,
        ensure_telemetry(None),
        SweepOptions(),
        sweep.batch,
        telemetry_config=telemetry_config,
    )
    # No journal and no cache: the ledger has nothing to close.
    outcomes = runner.run()
    return [
        ("ok", outcome.result, runner.ledger.locals[outcome.index])
        if outcome.error is None
        else (
            outcome.error.kind,
            outcome.error.exc_type,
            outcome.error.message,
            outcome.error.traceback,
        )
        for outcome in outcomes
    ]


def _submission_window(jobs: int, window_factor: int = 4) -> int:
    """In-flight submission bound: keep workers fed, memory bounded.

    Submitting all N futures up front holds every pickled spec and
    every pending pickled result in memory at once; a window of
    ``window_factor * jobs`` tasks (a lane group counts once) keeps the
    pool saturated (workers never wait on the collector) while bounding
    both.
    """
    return max(1, window_factor) * max(1, jobs)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly tear down a pool whose workers may be hung.

    ``shutdown`` alone waits for running work -- useless against a hung
    or wedged worker -- so kill the worker processes first.  SIGKILL,
    not SIGTERM: forked workers inherit the parent's signal handlers,
    and the CLI's SIGTERM -> KeyboardInterrupt handler would let a
    worker catch the signal, survive, and block the old pool's manager
    thread on a result nobody reads.  Uses the executor's private
    process table; guarded so a stdlib layout change degrades to a
    plain (blocking-free) shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - platform-specific
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_specs(
    specs: Sequence[WorkSpec],
    jobs: int | None = None,
    telemetry=None,
    options: "SweepOptions | None" = None,
    batch: int | None = None,
    cluster=None,
    cache=None,
) -> list[RunResult]:
    """Execute specs, serially or on a process pool; results in spec order.

    Every setting left as ``None`` comes from :func:`resolve_sweep`:
    the installed :class:`SweepDefaults`, then ``REPRO_CACHE`` for the
    cache.  With no ``options`` and no ``cluster`` from either, this is
    the *fail-fast* sweep: no retries, and the earliest failing spec's
    own exception propagates (a worker crash, which leaves no exception
    object behind, raises :class:`~repro.errors.SweepError` naming the
    spec).  At ``jobs=1``
    no spec after the failing one runs; on a pool the in-flight
    workers are killed.  Results of specs that completed before the
    failure are kept -- folded into ``telemetry`` and, with a cache,
    stored.

    ``jobs > 1`` fans out over worker processes (submissions bounded by
    a sliding window) and folds each worker's retain-everything local
    telemetry back into the sink in spec order, so retained traces,
    events, and merged metrics match the serial run exactly (spans
    excepted; see the module docstring).  An in-process, unbatched,
    uncached fail-fast sweep records straight into ``telemetry``, so
    its profiler also sees one ``engine.run`` span per spec.

    ``options`` selects the fault-tolerant mode of :func:`run_outcomes`
    instead: failing specs yield ``None`` entries in the returned list
    (or, with ``options.strict``, one aggregated
    :class:`~repro.errors.SweepError` at the end).

    ``batch`` groups consecutive compatible specs into one vectorized
    :class:`~repro.sim.batch.BatchEngine` kernel per group -- inside
    each pool worker when ``jobs > 1``, so process- and lane-level
    parallelism compose.  Results stay bit-identical to the unbatched
    sweep; telemetry follows the parallel parity model (per-lane local
    sinks folded in spec order) even at ``jobs=1``, because lanes run
    interleaved.

    ``cache`` (a directory, an open
    :class:`~repro.sim.cache.ResultCache`, or ``False``) consults the
    cross-sweep result cache before executing anything: hits replay
    their stored result and telemetry bit-identically, only misses run
    (and write their outcome back).  Misses fold worker-local telemetry
    even at ``jobs=1``, like lane batching.  ``cache.*`` orchestration
    events are excluded from the parity guarantee, like ``sweep.*``.
    """
    specs = list(specs)
    sweep = resolve_sweep(jobs, batch, options, cluster, cache, len(specs))
    outcomes = _run_resolved(
        specs,
        sweep,
        ensure_telemetry(telemetry),
        fail_fast=sweep.options is None and sweep.cluster is None,
    )
    return [outcome.result for outcome in outcomes]


def run_outcomes(
    specs: Sequence[WorkSpec],
    jobs: int | None = None,
    telemetry=None,
    options: "SweepOptions | None" = None,
    batch: int | None = None,
    cluster=None,
    cache=None,
) -> list[SpecOutcome]:
    """Fault-tolerantly execute specs; structured outcomes in spec order.

    The resilient counterpart of :func:`run_specs`: every spec yields a
    :class:`SpecOutcome` -- a result, or a
    :class:`~repro.sim.ledger.SpecFailure` capturing the
    exception/traceback, timeout, or worker crash that exhausted its
    retry budget -- and one spec's failure never aborts
    the rest of the sweep.  See :class:`SweepOptions` for the retry,
    timeout, checkpoint/resume, and strict-mode knobs, and the module
    docstring for the determinism guarantees.

    Settings left as ``None`` resolve as in :func:`run_specs`.
    ``cluster`` serves the specs to distributed workers through a
    :class:`~repro.sim.distributed.ShardCoordinator` instead of
    executing locally; ``jobs`` and ``batch`` then apply on
    each *worker's* command line, not here.  Outcomes, telemetry, and
    checkpoint behaviour are bit-identical either way.

    ``cache`` replays previously completed specs from the cross-sweep
    result cache before any execution or leasing happens
    (``from_cache=True`` on their outcomes); fresh successes write back.
    """
    specs = list(specs)
    sweep = resolve_sweep(jobs, batch, options, cluster, cache, len(specs))
    return _run_resolved(specs, sweep, ensure_telemetry(telemetry))


def _run_resolved(
    specs: list[WorkSpec],
    sweep: ResolvedSweep,
    sink,
    fail_fast: bool = False,
) -> list[SpecOutcome]:
    """Execute ``specs`` with settled settings: on the cluster, or here."""
    options = sweep.options if sweep.options is not None else SweepOptions()
    if sweep.cluster is not None:
        # Function-level import: repro.sim.distributed builds on this
        # module.
        from repro.sim.distributed.coordinator import run_cluster_outcomes

        return run_cluster_outcomes(
            specs, sweep.cluster, options=options, telemetry=sink,
            cache=sweep.cache,
        )
    runner = _OutcomeRunner(
        specs,
        sweep.jobs,
        sink,
        options,
        sweep.batch,
        cache=sweep.cache,
        fail_fast=fail_fast,
    )
    ledger = runner.ledger
    try:
        outcomes = runner.run()
    finally:
        # Also on an interrupt or a fail-fast raise: fold completed
        # runs' telemetry (in spec order) so the sink -- and the
        # journal, already fsync'd per outcome -- reflect every
        # finished spec before the exception propagates.
        ledger.close(stop=runner.failed_at)
    ledger.raise_if_strict()
    return outcomes


class _OutcomeRunner:
    """One sweep execution: state + the retry/rebuild loop.

    The only local executor: :func:`run_outcomes` runs it
    fault-tolerantly, :func:`run_specs` in fail-fast mode (the first
    permanent failure raises, and on a pool kills the in-flight
    workers), and :func:`execute_payloads` for one shard-worker
    attempt.  ``telemetry_config`` overrides the run-local telemetry
    derived from ``sink`` (the shard worker has no sink of its own).
    It takes settled values only: a worker count, a batch width and an
    open cache or ``None`` (see :func:`resolve_sweep`).
    Outcomes, the journal, the cache and the telemetry fold belong to
    its :class:`~repro.sim.ledger.SweepLedger`; the runner only
    decides what runs where, and when a failure retries.
    """

    def __init__(
        self,
        specs: list[WorkSpec],
        jobs: int,
        sink,
        options: SweepOptions,
        batch: int = 1,
        cache=None,
        fail_fast: bool = False,
        telemetry_config: TelemetryConfig | None = None,
    ) -> None:
        self.specs = specs
        self.jobs = jobs
        self.sink = sink
        self.options = options
        self.batch = batch
        self.ledger = SweepLedger(specs, sink, options, cache)
        #: Per-spec lane-compatibility keys (None = never batch).
        self._batch_keys = (
            [batch_compatibility_key(spec) for spec in specs]
            if batch > 1
            else None
        )
        #: Specs banned from batching: after an unattributable group
        #: failure (timeout, group-level error) its lanes re-run as
        #: singletons so blame is attributable on the next attempt.
        self._no_batch: set[int] = set()
        if telemetry_config is None and sink.enabled:
            telemetry_config = _worker_telemetry_config(
                getattr(sink, "config", None)
            )
        self.config = telemetry_config
        self.fail_fast = fail_fast
        #: An in-process, unbatched, uncached fail-fast sweep records
        #: straight into the sink: nothing else has to fold between its
        #: runs, so per-run profiler spans land there too.
        self._share_sink = (
            fail_fast
            and jobs <= 1
            and batch <= 1
            and self.ledger.cache is None
            and sink.enabled
        )
        #: Fail-fast: the failing spec's index; folding stops before it.
        self.failed_at: int | None = None

    # -- outcome bookkeeping -------------------------------------------------
    def _register_failure(
        self,
        index: int,
        attempt: int,
        kind: str,
        exc_type: str,
        message: str,
        traceback: str = "",
        error: BaseException | None = None,
    ) -> bool:
        """Handle one failed attempt; True if the spec should retry.

        In fail-fast mode a permanent failure raises instead: ``error``
        (the spec's own exception) when there is one, else a
        :class:`~repro.errors.SweepError` naming the spec.
        """
        delay = self.ledger.charge_failure(
            index, attempt, kind, exc_type, message, traceback
        )
        if delay is not None:
            if delay > 0:
                time.sleep(delay)
            return True
        if self.fail_fast:
            self.failed_at = index
            if error is not None and error.__traceback__ is None:
                # It crossed a process boundary, whose pickle drops the
                # frames: chain the worker's traceback text instead.
                raise error from _RemoteTraceback(traceback)
            if error is not None:
                raise error
            spec = self.specs[index]
            outcome = self.ledger.outcomes[index]
            raise SweepError(
                f"{spec.benchmark}/{spec.policy}[seed={spec.seed}] "
                f"failed: {outcome.error}",
                [outcome],
            )
        return False

    def _task_raised(self, lanes: list, error: BaseException) -> list:
        """Blame a task that raised as a whole; return the lanes to re-run.

        Spec failures come back as payloads (see :func:`_run_task`), so
        a raise here is infrastructure: pickling, lane compatibility.
        A one-spec task is charged like any spec error.  A group's
        raise is no one lane's fault, so its lanes re-run uncharged as
        batching-exempt singletons and blame lands on their next
        attempt.
        """
        if len(lanes) > 1:
            self._no_batch.update(i for i, _ in lanes)
            return lanes
        index, attempt = lanes[0]
        if self._register_failure(
            index,
            attempt,
            "error",
            type(error).__name__,
            str(error),
            "".join(traceback_module.format_exception(error)),
            error,
        ):
            return [(index, attempt + 1)]
        return []

    # -- execution -----------------------------------------------------------
    def run(self) -> list[SpecOutcome]:
        queue = deque((index, 0) for index in self.ledger.open())
        if queue:
            # Timeouts are only enforceable on a pool (a hung in-process
            # spec cannot be preempted), so jobs=1 with a timeout runs
            # on a one-worker pool; plain jobs=1 stays in-process.
            if self.jobs <= 1 and self.options.timeout_seconds is None:
                self._run_serial(queue)
            else:
                self._run_pool(queue)
        return list(self.ledger.outcomes)  # all filled now

    def _next_group(self, queue: deque) -> list[tuple[int, int]]:
        """Pop the leading lane group: compatible consecutive specs.

        Mirrors :func:`~repro.sim.batch.plan_batches` but operates on
        the live retry queue, so requeued attempts regroup with
        whatever compatible work is adjacent *now*.  Specs in
        ``_no_batch`` (or with a ``None`` key: multicore) stay
        singletons.
        """
        index, attempt = queue.popleft()
        lanes = [(index, attempt)]
        if self.batch <= 1 or index in self._no_batch:
            return lanes
        key = self._batch_keys[index]
        if key is None:
            return lanes
        while queue and len(lanes) < self.batch:
            next_index, _ = queue[0]
            if (
                next_index in self._no_batch
                or self._batch_keys[next_index] != key
            ):
                break
            lanes.append(queue.popleft())
        return lanes

    def _settle_task(self, lanes: list, payloads, retries) -> None:
        """Apply one finished task's payloads (see :func:`_run_task`).

        Lanes whose failure should retry are appended to ``retries``.
        """
        for (index, attempt), item in zip(lanes, payloads):
            if item[0] == "ok":
                _, result, local = item
                self.ledger.settle_success(index, attempt + 1, result, local)
                continue
            _, exc_type, message, tb, error = item
            if self._register_failure(
                index, attempt, "error", exc_type, message, tb, error
            ):
                retries.append((index, attempt + 1))

    def _run_serial(self, queue: deque) -> None:
        """In-process execution: isolation + retries, no preemption."""
        sink = self.sink if self._share_sink else None
        while queue:
            lanes = self._next_group(queue)
            try:
                payloads = _run_task(
                    [self.specs[i] for i, _ in lanes], self.config, sink
                )
            except Exception as error:
                # The task raised as a whole: blamed as on the pool.
                queue.extendleft(reversed(self._task_raised(lanes, error)))
                continue
            self._settle_task(lanes, payloads, queue)

    def _harvest_in_flight(self, in_flight: deque) -> list[tuple[int, int]]:
        """After a pool death: settle finished futures, list the lost.

        Futures that completed before the pool died still hold their
        payloads (or the task's own exception, blamed as usual);
        everything else -- running or queued -- was lost with the
        workers and must re-run.
        """
        survivors: list[tuple[int, int]] = []
        while in_flight:
            lanes, future, _deadline, _is_solo = in_flight.popleft()
            if not future.done() or future.cancelled():
                survivors.extend(lanes)
                continue
            error = future.exception()
            if error is None:
                self._settle_task(lanes, future.result(), survivors)
            elif isinstance(error, BrokenExecutor):
                survivors.extend(lanes)
            else:
                survivors.extend(self._task_raised(lanes, error))
        return survivors

    def _handle_timeout(self, index: int, attempt: int) -> bool:
        """Record one timed-out attempt; True if the spec retries."""
        spec = self.specs[index]
        timeout = self.options.timeout_seconds
        if self.sink.enabled:
            self.sink.event(
                "sweep.timeout",
                index,
                f"{spec.benchmark}/{spec.policy} exceeded {timeout}s; "
                f"terminating its worker",
                timeout_seconds=timeout,
                attempt=attempt + 1,
            )
        return self._register_failure(
            index,
            attempt,
            "timeout",
            "TimeoutError",
            f"spec exceeded the {timeout}s wall-clock timeout",
        )

    def _run_pool(self, queue: deque) -> None:
        """Pool execution: timeouts, crash recovery, sliding window.

        Two failure channels need pool surgery, with different blame
        semantics:

        * **Timeout** -- exactly attributable (each future has its own
          deadline), so the hung spec is charged, its worker is
          terminated, innocents requeue uncharged, and the pool is
          rebuilt.
        * **Worker crash** (``BrokenProcessPool``) -- *not*
          attributable: a dying worker fails every in-flight future,
          innocent or not.  All lost specs become *suspects* and re-run
          one at a time on the fresh pool; a spec that kills its own
          solo pool is definitively the crasher and is charged, while
          innocents simply complete and keep their full retry budget.
          Only these unattributed crashes count toward
          ``max_pool_rebuilds`` -- attributed deaths are bounded by the
          guilty spec's retry budget instead, so one deterministic
          crasher cannot push the whole sweep into degraded mode.
        """
        options = self.options
        jobs = max(1, self.jobs)
        window = _submission_window(jobs, options.window_factor)
        timeout = options.timeout_seconds
        unattributed_deaths = 0
        pool = ProcessPoolExecutor(max_workers=jobs)
        #: Suspects of an unattributed pool crash, re-run one at a time.
        solo: deque = deque()
        # (lanes, future, deadline, is_solo); lanes = [(index, attempt)]
        in_flight: deque = deque()

        def submit(lanes: list, is_solo: bool) -> None:
            future = pool.submit(
                _run_task, [self.specs[i] for i, _ in lanes], self.config
            )
            # The wall clock is per *lane*: a B-lane group legitimately
            # takes ~B times one spec's time on its single worker.
            deadline = (
                None
                if timeout is None
                else time.monotonic() + timeout * len(lanes)
            )
            in_flight.append((lanes, future, deadline, is_solo))

        def rebuild() -> None:
            nonlocal pool
            _kill_pool(pool)
            pool = ProcessPoolExecutor(max_workers=jobs)

        try:
            while queue or solo or in_flight:
                pending: list | None = None
                try:
                    if solo:
                        if not in_flight:
                            pending = [solo.popleft()]
                            submit(pending, True)
                    else:
                        # The window counts tasks: a lane group is one
                        # task, so every worker gets a group to run.
                        while queue and len(in_flight) < window:
                            pending = self._next_group(queue)
                            submit(pending, False)
                    pending = None
                except BrokenExecutor:
                    # The pool broke between collections (discovered at
                    # submit): unattributed.  The specs we were
                    # submitting never ran; put them back uncharged.
                    solo.extendleft(reversed(pending))
                    solo.extendleft(
                        reversed(self._harvest_in_flight(in_flight))
                    )
                    unattributed_deaths += 1
                    if self.sink.enabled:
                        self.sink.event(
                            "sweep.pool_crash",
                            pending[0][0],
                            "worker pool died before accepting work; "
                            "rebuilding",
                            deaths=unattributed_deaths,
                        )
                    rebuild()
                    if unattributed_deaths > options.max_pool_rebuilds:
                        break
                    continue
                lanes, future, deadline, is_solo = in_flight.popleft()
                index, attempt = lanes[0]
                spec = self.specs[index]
                try:
                    remaining = (
                        None
                        if deadline is None
                        else max(0.0, deadline - time.monotonic())
                    )
                    payload = future.result(timeout=remaining)
                except FuturesTimeoutError:
                    if future.cancel():
                        # Never handed to a worker's call queue: it
                        # aged out behind slow specs.  Not the specs'
                        # fault -- resubmit without charge.
                        if is_solo:
                            solo.extendleft(reversed(lanes))
                        else:
                            queue.extendleft(reversed(lanes))
                        continue
                    if len(lanes) == 1:
                        # Attributable: this future's own deadline
                        # passed while it was running.  Terminate its
                        # worker, requeue innocents uncharged, rebuild.
                        if self._handle_timeout(index, attempt):
                            queue.append((index, attempt + 1))
                    else:
                        # A group deadline (timeout x lanes) passed:
                        # unattributable to one lane.  All lanes
                        # requeue uncharged as batching-exempt
                        # singletons, so a genuinely hung lane is
                        # charged on its next, solo, attempt.
                        self._no_batch.update(i for i, _ in lanes)
                        if self.sink.enabled:
                            self.sink.event(
                                "sweep.timeout",
                                index,
                                f"batched group of {len(lanes)} lanes "
                                f"exceeded {timeout}s per lane; "
                                f"re-running its lanes unbatched",
                                timeout_seconds=timeout,
                                lanes=len(lanes),
                            )
                        queue.extendleft(reversed(lanes))
                    queue.extendleft(
                        reversed(self._harvest_in_flight(in_flight))
                    )
                    rebuild()
                except BrokenExecutor:
                    if is_solo:
                        # An isolated re-run killed its own pool:
                        # definitively the crasher -- charge it.
                        if self.sink.enabled:
                            self.sink.event(
                                "sweep.pool_crash",
                                index,
                                f"{spec.benchmark}/{spec.policy} killed "
                                f"its worker (isolated re-run); charged",
                                attempt=attempt + 1,
                            )
                        if self._register_failure(
                            index,
                            attempt,
                            "crash",
                            "BrokenProcessPool",
                            "worker process died (exit/OOM/segfault) "
                            "running this spec in isolation",
                        ):
                            solo.append((index, attempt + 1))
                        rebuild()
                    else:
                        # Windowed crash: any in-flight spec may be the
                        # crasher.  Everyone lost becomes a suspect and
                        # re-runs in isolation, uncharged.
                        unattributed_deaths += 1
                        suspects = len(lanes) + sum(
                            len(entry[0]) for entry in in_flight
                        )
                        if self.sink.enabled:
                            self.sink.event(
                                "sweep.pool_crash",
                                index,
                                f"worker process died with "
                                f"{suspects} specs in flight; "
                                f"isolating suspects",
                                deaths=unattributed_deaths,
                                suspects=suspects,
                            )
                        solo.extend(lanes)
                        solo.extend(self._harvest_in_flight(in_flight))
                        rebuild()
                        if unattributed_deaths > options.max_pool_rebuilds:
                            break
                except Exception as error:
                    # The task raised as a whole; the pool is fine.
                    queue.extendleft(
                        reversed(self._task_raised(lanes, error))
                    )
                else:
                    self._settle_task(lanes, payload, queue)
        except BaseException:
            # An interrupt or a fail-fast raise: nothing in flight is
            # wanted any more, so do not wait for it.
            _kill_pool(pool)
            raise
        # Nothing is in flight: let the idle workers exit now, so none
        # outlives the sweep (a forked caller's exit would wait on them).
        pool.shutdown(wait=True)
        if unattributed_deaths > options.max_pool_rebuilds:
            self._degrade(queue, solo, unattributed_deaths)

    def _degrade(
        self, queue: deque, solo: deque, rebuilds: int
    ) -> None:
        """Too many pool deaths: finish the sweep in-process, serially.

        The sweep-level open-loop fallback.  Timeouts are no longer
        enforceable and a crashing spec becomes fatal, but a flaky
        *environment* (OOM killer, broken pickling of one config, a
        container on fire) stops costing the whole matrix.
        """
        remaining = deque(solo)
        remaining.extend(queue)
        if self.sink.enabled:
            self.sink.event(
                "sweep.degraded",
                -1,
                f"{rebuilds} pool deaths exceeded "
                f"max_pool_rebuilds={self.options.max_pool_rebuilds}; "
                f"finishing {len(remaining)} specs serially in-process",
                rebuilds=rebuilds,
                remaining=len(remaining),
            )
        self._run_serial(remaining)
