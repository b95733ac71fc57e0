"""The sweep flag group shared by ``python -m repro`` and
``python -m repro.experiments``.

:func:`add_sweep_arguments` declares every flag that decides how a
sweep runs -- its help text, its default and its ``dest`` -- once, and
:func:`sweep_defaults_from_args` turns the parsed flags into one
:class:`~repro.sim.parallel.SweepDefaults`.  Validation is the
constructors' own (``SweepDefaults``, ``SweepOptions``,
``RetryPolicy``, ``ClusterConfig``, the cache directory check); any
:class:`~repro.errors.ConfigError` or :class:`~repro.errors.CacheError`
they raise becomes a usage error (exit code 2), never a traceback.
``REPRO_CACHE`` is read and checked here too, at start-up, through the
same path as ``--cache``.
"""

from __future__ import annotations

import os

from repro.errors import CacheError, ConfigError
from repro.sim.cache import DEFAULT_CACHE_DIR
from repro.sim.parallel import RetryPolicy, SweepDefaults, SweepOptions


def add_sweep_arguments(
    parser,
    *,
    local: bool = True,
    resilience: bool = True,
    cache: str | None = "sweep",
    endpoint: str | None = "--cluster",
) -> None:
    """Add the sweep flags to ``parser``.

    ``local`` adds ``--jobs``/``--batch``; ``resilience`` the
    fault-tolerance flags; ``cache="sweep"`` adds ``--cache`` and
    ``--no-cache``, ``cache="store"`` only ``--cache``.  ``endpoint``
    names the cluster endpoint flag: an optional ``--cluster`` for a
    sweep, a required ``--bind`` for a coordinator or ``--connect``
    for a worker; ``--token`` comes with it (required unless
    ``--cluster``).
    """
    if local:
        group = parser.add_argument_group(
            "parallelism (see docs/performance.md)"
        )
        group.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes per sweep (0 = all cores; results "
            "are bit-identical to --jobs 1)",
        )
        group.add_argument(
            "--batch", type=int, default=1, metavar="B",
            help="lane-batch width: advance up to B compatible runs "
            "through one vectorized kernel (composes with --jobs; "
            "results are bit-identical to --batch 1)",
        )
    if resilience:
        group = parser.add_argument_group(
            "fault tolerance (see docs/robustness.md)"
        )
        group.add_argument(
            "--retries", type=int, default=0, metavar="N",
            help="re-run a failed/crashed/timed-out spec up to N times",
        )
        group.add_argument(
            "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
            help="deterministic backoff before the first retry "
            "(doubles per further retry)",
        )
        group.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-spec wall-clock timeout; a hung worker is "
            "terminated and the spec charged one attempt",
        )
        group.add_argument(
            "--checkpoint", default=None, metavar="PATH",
            help="append each completed spec to a crash-safe JSONL "
            "journal (python -m repro.experiments shares one journal "
            "across its sweeps and always resumes from it)",
        )
        group.add_argument(
            "--resume", action="store_true",
            help="skip specs already completed in the --checkpoint "
            "journal (results bit-identical to an uninterrupted sweep)",
        )
        group.add_argument(
            "--strict", action="store_true",
            help="raise one aggregated error at the end if any spec "
            "failed permanently",
        )
    if cache is not None:
        group = parser.add_argument_group(
            "result caching (see docs/performance.md, Level 5)"
        )
        group.add_argument(
            "--cache", nargs="?", const=DEFAULT_CACHE_DIR, default=None,
            metavar="DIR",
            help="the persistent result cache (DIR defaults to "
            f"{DEFAULT_CACHE_DIR}; without --cache, REPRO_CACHE): sweeps "
            "replay previously completed specs from it and store fresh "
            "ones, bit-identical to a cold sweep",
        )
        if cache == "sweep":
            group.add_argument(
                "--no-cache", action="store_true",
                help="disable the result cache even when REPRO_CACHE is set",
            )
    if endpoint is None:
        return
    group = parser.add_argument_group(
        "distributed sharding (see docs/performance.md, Level 4)"
    )
    if endpoint == "--cluster":
        group.add_argument(
            "--cluster", default=None, metavar="HOST:PORT",
            help="coordinate every sweep for distributed workers bound "
            "to this endpoint instead of executing locally (results "
            "are bit-identical; requires --token)",
        )
    elif endpoint == "--bind":
        group.add_argument(
            "--bind", required=True, metavar="HOST:PORT",
            help="endpoint to listen on (port 0 picks a free port, "
            "printed on startup)",
        )
    else:
        group.add_argument(
            "--connect", required=True, metavar="HOST:PORT",
            help="the coordinator endpoint: a serve-sweep, or a sweep "
            "run with --cluster",
        )
    group.add_argument(
        "--token", required=endpoint != "--cluster", default=None,
        metavar="SECRET",
        help="shared token workers present to their coordinator",
    )


def sweep_defaults_from_args(
    parser, args, *, checkpoint_resumes: bool = False
) -> SweepDefaults:
    """The :class:`SweepDefaults` the parsed sweep flags ask for.

    Flags a parser does not declare keep their built-in values.  With
    ``checkpoint_resumes``, ``--checkpoint`` implies ``--resume``: a
    multi-sweep run shares one journal, and only append semantics keep
    the earlier sweeps' entries.  Any invalid value exits through
    ``parser.error``.
    """
    if getattr(args, "resume", False) and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if getattr(args, "no_cache", False) and args.cache is not None:
        parser.error("--cache conflicts with --no-cache")
    if getattr(args, "cluster", None) and not args.token:
        parser.error("--cluster requires --token")
    try:
        return SweepDefaults(
            jobs=getattr(args, "jobs", 1),
            batch=getattr(args, "batch", 1),
            options=_sweep_options(args, checkpoint_resumes),
            cluster=_cluster(args),
            cache=_cache(args),
        )
    except (CacheError, ConfigError) as error:
        parser.error(str(error))


def _sweep_options(args, checkpoint_resumes: bool) -> SweepOptions | None:
    """``SweepOptions`` from the fault-tolerance flags, if any is set.

    ``None`` when none is set keeps the sweep fail-fast.  The retry
    policy is built either way, so a bad ``--retry-backoff`` is
    rejected on its own too.
    """
    if not hasattr(args, "retries"):
        return None
    retry = RetryPolicy(
        max_retries=args.retries, backoff_seconds=args.retry_backoff
    )
    if not (
        args.retries
        or args.timeout is not None
        or args.checkpoint is not None
        or args.resume
        or args.strict
    ):
        return None
    return SweepOptions(
        retry=retry,
        timeout_seconds=args.timeout,
        checkpoint_path=args.checkpoint,
        resume=args.resume or (
            checkpoint_resumes and args.checkpoint is not None
        ),
        strict=args.strict,
    )


def _cluster(args):
    """The :class:`ClusterConfig` of the endpoint flag, or ``None``."""
    from repro.sim.distributed.protocol import ClusterConfig, parse_endpoint

    for flag, ephemeral in (
        ("cluster", False), ("bind", True), ("connect", False)
    ):
        endpoint = getattr(args, flag, None)
        if endpoint is not None:
            host, port = parse_endpoint(endpoint, allow_ephemeral=ephemeral)
            return ClusterConfig(host, port, args.token)
    return None


def _cache(args) -> str | bool | None:
    """``False`` for ``--no-cache``, else ``--cache``, else ``REPRO_CACHE``."""
    if getattr(args, "no_cache", False):
        return False
    if not hasattr(args, "cache"):
        return None
    if args.cache is not None:
        return args.cache
    return os.environ.get("REPRO_CACHE") or None
