"""Command-line interface: run benchmarks under DTM policies.

Examples::

    python -m repro run gcc --policy pid
    python -m repro run mesa --policy toggle1 --instructions 3000000
    python -m repro run gcc --policy pi --dropout 0.05 --watchdog
    python -m repro run gcc --policy pi --stuck-window 420 470 \
        --stuck-value 100.5 --watchdog
    python -m repro run gcc --policy pid --trace-out trace.jsonl \
        --metrics-out metrics.json
    python -m repro run gcc,gzip,art,mesa --cores 4 --policy pid \
        --coordinator proportional
    python -m repro trace trace.jsonl --top 5
    python -m repro compare gcc --policies toggle1 m pid
    python -m repro compare gcc --policies pid --cache
    python -m repro cache stats
    python -m repro list

With ``--cores N`` (N > 1) the benchmark argument is a comma-separated
mix assigned to cores round-robin and the run uses the multicore engine
(:mod:`repro.multicore`); ``--coordinator`` adds chip-level arbitration
above the per-core loops.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import FailsafeConfig, TelemetryConfig
from repro.dtm.policies import POLICY_NAMES
from repro.faults import FaultSchedule, FaultWindow
from repro.sim.flags import add_sweep_arguments, sweep_defaults_from_args
from repro.sim.sweep import run_one
from repro.workloads.profiles import BENCHMARKS, get_profile


def _print_result(result, baseline=None) -> None:
    print(f"benchmark:        {result.benchmark}")
    print(f"policy:           {result.policy}")
    print(f"cycles:           {result.cycles:,}")
    print(f"instructions:     {result.instructions:,.0f}")
    print(f"IPC:              {result.ipc:.3f}")
    if baseline is not None:
        print(f"% of non-DTM IPC: {100 * result.relative_ipc(baseline):.1f}")
    print(f"mean chip power:  {result.mean_chip_power:.1f} W")
    print(f"max temperature:  {result.max_temperature:.3f} C")
    print(f"emergency cycles: {100 * result.emergency_fraction:.3f} %")
    print(f"stress cycles:    {100 * result.stress_fraction:.3f} %")
    if result.extra:
        width = max(len(key) for key in result.extra) + 2
        for key, value in sorted(result.extra.items()):
            print(f"{key + ':':<{width}}{value:g}")


def cmd_list(_args) -> int:
    print("benchmarks (thermal category):")
    for name, profile in BENCHMARKS.items():
        print(f"  {name:10s} {profile.category.value:8s} "
              f"mean IPC {profile.mean_ipc:.2f}")
    print("\npolicies:", ", ".join(POLICY_NAMES))
    return 0


def _fault_schedule(args) -> FaultSchedule | None:
    """Build a fault schedule from CLI flags (``None`` when fault-free)."""
    windows = []
    if args.stuck_window is not None:
        start, end = args.stuck_window
        windows.append(FaultWindow(start, end, value=args.stuck_value))
    if not (args.dropout or args.spike_rate or args.drift or windows):
        return None
    return FaultSchedule(
        args.fault_seed,
        dropout_rate=args.dropout,
        spike_rate=args.spike_rate,
        drift_per_sample=args.drift,
        sensor_stuck_windows=windows,
    )


def _build_telemetry(args):
    """A live :class:`Telemetry` when any observability flag asks for one."""
    if not (args.telemetry or args.trace_out or args.metrics_out):
        return None
    from repro.telemetry import Telemetry

    return Telemetry(TelemetryConfig(trace_mode=args.trace_mode))


def _export_telemetry(telemetry, args) -> None:
    """Write the requested trace/metrics files and a one-line receipt."""
    from repro.telemetry import (
        write_metrics_json,
        write_trace_csv,
        write_trace_jsonl,
    )

    if args.trace_out:
        if args.trace_out.endswith(".csv"):
            rows = write_trace_csv(
                telemetry.trace,
                args.trace_out,
                block_names=telemetry.meta.get("block_names"),
            )
            print(f"trace:            {args.trace_out} ({rows} samples, CSV)")
        else:
            lines = write_trace_jsonl(
                telemetry.trace, args.trace_out, meta=telemetry.meta
            )
            print(f"trace:            {args.trace_out} ({lines} lines, JSONL)")
    if args.metrics_out:
        write_metrics_json(telemetry.snapshot(), args.metrics_out)
        print(f"metrics:          {args.metrics_out}")


def _print_telemetry_summary(telemetry) -> None:
    snapshot = telemetry.snapshot()
    trace = snapshot["trace"]
    print(
        f"trace retained:   {trace['retained']} of {trace['emitted']} "
        f"samples (mode={trace['mode']}, stride={trace['stride']}), "
        f"{trace['events']} events"
    )
    if snapshot["spans"]:
        print(telemetry.profiler.report())


def _print_multicore_result(result, baseline=None) -> None:
    print(f"benchmarks:       {','.join(result.benchmarks)}")
    print(f"policy:           {result.policy}")
    print(f"coordinator:      {result.coordinator or '(none)'}")
    print(f"cores:            {result.n_cores}")
    print(f"cycles:           {result.cycles:,}")
    print(f"throughput:       {result.throughput:.3f} IPC")
    if baseline is not None:
        print(
            f"% of non-DTM thr: "
            f"{100 * result.relative_throughput(baseline):.1f}"
        )
    print(f"mean chip power:  {result.mean_chip_power:.1f} W")
    print(f"max temperature:  {result.max_temperature:.3f} C "
          f"(core {result.hottest_core})")
    print(f"emergency cycles: {100 * result.emergency_fraction:.3f} %")
    print(f"stress cycles:    {100 * result.stress_fraction:.3f} %")
    if result.extra:
        width = max(len(key) for key in result.extra) + 2
        for key, value in sorted(result.extra.items()):
            print(f"{key + ':':<{width}}{value:g}")
    header = (
        f"{'core':>4} {'benchmark':>10} {'IPC':>7} {'em%':>8} "
        f"{'maxT':>9} {'demoted':>8}"
    )
    print(header)
    print("-" * len(header))
    for core in result.cores:
        print(
            f"{core.core:>4} {core.benchmark:>10} {core.ipc:7.3f} "
            f"{100 * core.emergency_fraction:8.3f} "
            f"{core.max_temperature:9.3f} {core.demoted_samples:8d}"
        )


def _run_multicore(args) -> int:
    """The ``run --cores N`` branch: one multiprogram multicore run."""
    from repro.multicore import MulticoreEngine

    names = [name.strip() for name in args.benchmark.split(",") if name.strip()]
    for name in names:
        get_profile(name)  # validate early, friendly error
    benchmarks = tuple(names[i % len(names)] for i in range(args.cores))
    schedule = _fault_schedule(args)
    # Faults target core 0 (the engine supports arbitrary per-core
    # schedules; the CLI exposes the single-victim case).
    fault_schedules = {0: schedule} if schedule is not None else None
    failsafe = FailsafeConfig() if args.watchdog else None

    baseline = None
    if args.policy != "none":
        baseline = MulticoreEngine(
            benchmarks, policy="none", seed=args.seed
        ).run(instructions=args.instructions)
    telemetry = _build_telemetry(args)
    engine = MulticoreEngine(
        benchmarks,
        policy=args.policy,
        coordinator=args.coordinator,
        seed=args.seed,
        fault_schedules=fault_schedules,
        failsafe=failsafe,
        telemetry=telemetry,
    )
    result = engine.run(instructions=args.instructions)
    _print_multicore_result(result, baseline)
    if telemetry is not None:
        _print_telemetry_summary(telemetry)
        _export_telemetry(telemetry, args)
    return 0


def cmd_run(args) -> int:
    if args.cores < 1:
        print("error: --cores must be at least 1", file=sys.stderr)
        return 2
    if args.cores > 1:
        if args.setpoint is not None:
            print(
                "error: --setpoint is not supported with --cores > 1",
                file=sys.stderr,
            )
            return 2
        return _run_multicore(args)
    if args.coordinator is not None:
        print(
            "error: --coordinator requires --cores > 1", file=sys.stderr
        )
        return 2
    get_profile(args.benchmark)  # validate early, friendly error
    baseline = None
    if args.policy != "none":
        baseline = run_one(
            args.benchmark, "none", instructions=args.instructions,
            seed=args.seed,
        )
    telemetry = _build_telemetry(args)
    result = run_one(
        args.benchmark,
        args.policy,
        instructions=args.instructions,
        seed=args.seed,
        setpoint=args.setpoint,
        fault_schedule=_fault_schedule(args),
        failsafe=FailsafeConfig() if args.watchdog else None,
        telemetry=telemetry,
    )
    _print_result(result, baseline)
    if telemetry is not None:
        _print_telemetry_summary(telemetry)
        _export_telemetry(telemetry, args)
    return 0


def cmd_trace(args) -> int:
    """Render the offline report for an exported JSONL trace."""
    from repro.telemetry import read_trace_jsonl, render_report

    trace = read_trace_jsonl(args.trace_file)
    print(
        render_report(
            trace.records,
            trace.events,
            threshold=args.threshold,
            top=args.top,
            meta=trace.meta,
        )
    )
    return 0


def _install_signal_handlers() -> None:
    """Convert SIGTERM into KeyboardInterrupt for clean shutdown.

    The coordinator and worker loops both handle KeyboardInterrupt by
    flushing the checkpoint journal and closing their sockets, so a
    ``kill``/``systemctl stop`` gets the same orderly teardown as
    Ctrl-C.  Signal handlers only install from the main thread (the
    interpreter forbids anything else; CLI tests drive these commands
    from worker threads).
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _handler)


def _compare_specs(args):
    from repro.sim.parallel import matrix_specs

    return matrix_specs(
        [args.benchmark],
        ["none", *args.policies],
        seeds=(args.seed,),
        instructions=args.instructions,
    )


def _print_compare_table(args, results, failures) -> int:
    baseline, policy_results = results[0], results[1:]
    if baseline is None:
        error = failures.get(0)
        print(
            f"error: baseline run failed "
            f"({error.kind}: {error.message})",
            file=sys.stderr,
        )
        return 1
    print(f"{args.benchmark}: baseline IPC {baseline.ipc:.3f}, "
          f"{100 * baseline.emergency_fraction:.2f}% emergency")
    header = f"{'policy':>8} {'%IPC':>7} {'em%':>8} {'maxT':>9}"
    print(header)
    print("-" * len(header))
    for position, (policy, result) in enumerate(
        zip(args.policies, policy_results), start=1
    ):
        if result is None:
            error = failures[position]
            print(f"{policy:>8}  FAILED ({error.kind}: {error.exc_type})")
            continue
        print(
            f"{policy:>8} {100 * result.relative_ipc(baseline):7.1f} "
            f"{100 * result.emergency_fraction:8.3f} "
            f"{result.max_temperature:9.3f}"
        )
    return 2 if failures else 0


def cmd_compare(args) -> int:
    from repro.errors import ShardError, SweepError
    from repro.sim.parallel import run_outcomes, run_specs, sweep_defaults

    defaults = args.sweep
    if defaults.cluster is not None:
        _install_signal_handlers()
    specs = _compare_specs(args)
    failures: dict[int, object] = {}
    if defaults.options is None and defaults.cluster is None:
        with sweep_defaults(defaults):
            results = run_specs(specs)
    else:
        try:
            with sweep_defaults(defaults):
                outcomes = run_outcomes(specs)
        except (SweepError, ShardError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        results = [outcome.result for outcome in outcomes]
        failures = {
            outcome.index: outcome.error
            for outcome in outcomes
            if outcome.error is not None
        }
    return _print_compare_table(args, results, failures)


def cmd_serve(args) -> int:
    """Coordinate a distributed compare sweep (``serve-sweep``)."""
    from repro.errors import ShardError, SweepError
    from repro.sim.distributed import ShardCoordinator
    from repro.sim.parallel import resolve_sweep, sweep_defaults

    with sweep_defaults(args.sweep):
        sweep = resolve_sweep()
    cluster = sweep.cluster
    _install_signal_handlers()
    specs = _compare_specs(args)
    coordinator = ShardCoordinator(
        specs, cluster, options=sweep.options, cache=sweep.cache
    )
    try:
        coordinator.start()
        print(
            f"serving {len(specs)} specs on "
            f"{cluster.host}:{coordinator.port} "
            f"(connect workers with: python -m repro work "
            f"--connect {cluster.host}:{coordinator.port} --token ...)",
            flush=True,
        )
        outcomes = coordinator.wait()
    except KeyboardInterrupt:
        stats = coordinator.stats()
        print(
            f"interrupted: {stats['settled']} of {stats['total']} specs "
            f"settled; the checkpoint journal (if any) holds them for "
            f"--resume",
            file=sys.stderr,
        )
        return 130
    except SweepError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ShardError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    results = [outcome.result for outcome in outcomes]
    failures = {
        outcome.index: outcome.error
        for outcome in outcomes
        if outcome.error is not None
    }
    return _print_compare_table(args, results, failures)


def cmd_work(args) -> int:
    """Serve a shard coordinator as a worker (``work``)."""
    from repro.errors import ShardError
    from repro.sim.distributed import run_worker

    if args.idle_timeout is not None and args.idle_timeout < 0:
        print("error: --idle-timeout must be >= 0", file=sys.stderr)
        return 2
    _install_signal_handlers()
    try:
        stats = run_worker(
            args.sweep.cluster,
            jobs=args.sweep.jobs,
            batch=args.sweep.batch,
            once=args.once,
            idle_timeout=args.idle_timeout,
        )
    except KeyboardInterrupt:
        print("worker interrupted; connection closed", file=sys.stderr)
        return 130
    except ShardError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"worker done: {stats['executed']} spec(s) executed across "
        f"{stats['sweeps']} sweep(s), {stats['failures']} failure(s)"
    )
    return 0


def cmd_cache(args) -> int:
    """Inspect or compact a result cache (``cache stats|verify|gc``)."""
    from repro.errors import CacheError
    from repro.sim.cache import DEFAULT_CACHE_DIR, ResultCache, cache_metrics

    try:
        store = ResultCache(
            args.sweep.cache or DEFAULT_CACHE_DIR, max_bytes=args.max_bytes
        )
    except CacheError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.action == "stats":
        stats = store.stats()
        registry = cache_metrics()
        print(f"cache:            {stats['path']}")
        print(f"entries:          {stats['entries']}")
        print(
            f"log bytes:        {stats['bytes']:,} "
            f"(gc budget {stats['max_bytes']:,})"
        )
        print(f"corrupt lines:    {stats['corrupt_lines']}")
        for name in ("hits", "misses", "evictions"):
            live = int(registry.counter(f"cache.{name}").value)
            print(f"{name + ':':<18}{stats[name]} lifetime, {live} live")
        return 0
    if args.action == "verify":
        report = store.verify()
        print(f"cache:                {report['path']}")
        print(f"schema ok:            {report['schema_ok']}")
        print(f"entries:              {report['entries']}")
        print(f"touch lines:          {report['touches']}")
        print(f"counter lines:        {report['counter_lines']}")
        print(f"corrupt lines:        {report['corrupt_lines']}")
        print(f"undecodable entries:  {report['undecodable_entries']}")
        print(f"torn tail:            {report['torn_tail']}")
        print(f"log bytes:            {report['bytes']:,}")
        for problem in report["errors"]:
            print(f"  {problem}", file=sys.stderr)
        healthy = (
            report["schema_ok"]
            and not report["corrupt_lines"]
            and not report["undecodable_entries"]
        )
        return 0 if healthy else 1
    try:
        summary = store.gc()
    except CacheError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(
        f"gc: kept {summary['kept']} entr(y/ies), evicted "
        f"{summary['evicted']}, log now {summary['bytes']:,} bytes"
    )
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The ``python -m repro`` parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Control-theoretic DTM with localized thermal-RC modeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and policies")

    run_parser = sub.add_parser("run", help="run one benchmark under one policy")
    run_parser.add_argument(
        "benchmark",
        help="benchmark name; with --cores, a comma-separated mix "
        "assigned to cores round-robin",
    )
    run_parser.add_argument("--policy", default="pid", choices=POLICY_NAMES)
    run_parser.add_argument("--instructions", type=float, default=2_000_000)
    run_parser.add_argument("--setpoint", type=float, default=None)
    run_parser.add_argument("--seed", type=int, default=0)
    multicore = run_parser.add_argument_group(
        "multicore (see docs/multicore.md)"
    )
    multicore.add_argument(
        "--cores", type=int, default=1, metavar="N",
        help="number of cores; N > 1 uses the multicore engine with "
        "one per-core DTM loop each (default: 1, single-core)",
    )
    multicore.add_argument(
        "--coordinator", default=None,
        choices=("uniform", "hottest", "proportional"),
        help="chip-level duty-budget arbitration above the per-core "
        "loops (multicore only; default: uncoordinated)",
    )
    faults = run_parser.add_argument_group(
        "fault injection (see docs/robustness.md)"
    )
    faults.add_argument(
        "--dropout", type=float, default=0.0, metavar="RATE",
        help="per-sample probability of a lost (NaN) sensor reading",
    )
    faults.add_argument(
        "--spike-rate", type=float, default=0.0, metavar="RATE",
        help="per-sample probability of a +/-5K sensor spike",
    )
    faults.add_argument(
        "--drift", type=float, default=0.0, metavar="K_PER_SAMPLE",
        help="additive sensor drift per sample",
    )
    faults.add_argument(
        "--stuck-window", type=int, nargs=2, default=None,
        metavar=("START", "END"),
        help="sample interval [START, END) with a stuck sensor",
    )
    faults.add_argument(
        "--stuck-value", type=float, default=None, metavar="DEGC",
        help="rail the stuck sensor at this reading "
        "(default: hold the last pre-window value)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the deterministic fault schedule",
    )
    faults.add_argument(
        "--watchdog", action="store_true",
        help="enable the failsafe DTM layer (plausibility gate, "
        "thermal watchdog, open-loop fallback)",
    )
    observability = run_parser.add_argument_group(
        "observability (see docs/observability.md)"
    )
    observability.add_argument(
        "--telemetry", action="store_true",
        help="collect metrics, a DTM decision trace, and span timings; "
        "print a summary after the run",
    )
    observability.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the per-sample trace (JSONL, or CSV if PATH ends "
        "in .csv); implies --telemetry",
    )
    observability.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics/profiler snapshot as JSON; "
        "implies --telemetry",
    )
    observability.add_argument(
        "--trace-mode", default="decimate", choices=("decimate", "ring"),
        help="trace retention: whole run at decreasing resolution "
        "(decimate) or the last N samples (ring)",
    )

    trace_parser = sub.add_parser(
        "trace", help="report on an exported JSONL trace"
    )
    trace_parser.add_argument(
        "trace_file", help="a trace written by --trace-out"
    )
    trace_parser.add_argument(
        "--top", type=int, default=10,
        help="number of hottest samples to list",
    )
    trace_parser.add_argument(
        "--threshold", type=float, default=102.0, metavar="DEGC",
        help="emergency threshold for episode detection",
    )

    def add_matrix_args(target) -> None:
        target.add_argument("benchmark")
        target.add_argument(
            "--policies", nargs="+", default=["toggle1", "m", "pid"],
            choices=[p for p in POLICY_NAMES if p != "none"],
        )
        target.add_argument(
            "--instructions", type=float, default=2_000_000
        )
        target.add_argument("--seed", type=int, default=0)

    compare_parser = sub.add_parser(
        "compare", help="compare several policies on one benchmark"
    )
    add_matrix_args(compare_parser)
    add_sweep_arguments(compare_parser)

    serve_parser = sub.add_parser(
        "serve-sweep",
        help="coordinate a distributed compare sweep for remote workers",
    )
    add_matrix_args(serve_parser)
    add_sweep_arguments(serve_parser, local=False, endpoint="--bind")

    cache_parser = sub.add_parser(
        "cache",
        help="inspect or compact the persistent result cache",
    )
    cache_parser.add_argument(
        "action", choices=("stats", "verify", "gc"),
        help="stats: entry count, sizes, lifetime hit/miss/eviction "
        "counters; verify: full structural + codec scan; gc: compact "
        "the log, evicting least-recently-used entries past the budget",
    )
    add_sweep_arguments(
        cache_parser, local=False, resilience=False, cache="store",
        endpoint=None,
    )
    cache_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="GC budget for entry payload bytes (default: "
        "REPRO_CACHE_MAX_BYTES, else 256 MiB)",
    )

    work_parser = sub.add_parser(
        "work", help="execute sweep specs leased from a coordinator"
    )
    add_sweep_arguments(
        work_parser, resilience=False, cache=None, endpoint="--connect"
    )
    work_parser.add_argument(
        "--once", action="store_true",
        help="exit after the first completed sweep instead of "
        "reconnecting for the next one",
    )
    work_parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="exit after this long with no coordinator answering "
        "(default: keep retrying until signalled)",
    )

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser, subcommands = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("compare", "serve-sweep", "cache", "work"):
        args.sweep = sweep_defaults_from_args(subcommands[args.command], args)
    commands = {
        "list": cmd_list,
        "run": cmd_run,
        "compare": cmd_compare,
        "serve-sweep": cmd_serve,
        "trace": cmd_trace,
        "work": cmd_work,
        "cache": cmd_cache,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
