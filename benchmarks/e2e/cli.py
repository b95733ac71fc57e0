"""The end-to-end benchmark: run workloads, check them, print every metric.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--record PATH]
    PYTHONPATH=src python -m benchmarks.e2e --bless
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0

Each workload runs in its own child process (:mod:`benchmarks.e2e.child`),
started :data:`SETUP_SAMPLES` times so ``setup_s`` is a median: all but
the last only set up, the last also runs the timed passes.  The
untraced run reports the end-to-end metrics; ``--trace`` instead runs a
traced pass after the untraced ones and reports the per-layer metrics.
The last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); a JSON run record with the raw per-pass values
is written alongside.  The exit status is 0 when every spec matched its
check, 1 when any did not, and 2 when the harness itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.stats import tail_percentile

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"
#: Caches, journals, worker trace files and run records; ignored by git.
#: It lives in the checkout, not on tmpfs, so the benchmark reads and
#: writes nothing outside it.
WORK_ROOT = ROOT / ".bench_e2e"

WORKLOAD_NAMES = (
    "t11_serial", "t11_jobs2_batch8", "hot_cache_cold", "hot_cache_warm"
)

#: Child processes started per workload; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Wall-clock allowance for one workload, all of its children included.
WORKLOAD_DEADLINE_S = 170.0

#: Golden outputs are blessed for these seeds.
BLESSED_SEEDS = range(5)

PAPER_PID_LOSS_REDUCTION_PCT = 65.0

#: Metrics the run record carries besides those in BENCHMARK.json, which
#: lists only metrics every workload has and that are never 0.  The tail
#: latency exists only where each spec is its own call; a failure share
#: is 0 and the model error deterministic, so any increase counts.
EXTRA_METRICS = {
    "spec_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "failed_frac": {"unit": "fraction", "better": "lower", "bound": 0.0},
    "pid_loss_reduction_err_pp": {"unit": "pp", "better": "lower", "bound": 0.0},
}

NOT_MEASURED = (
    "multi-host sharding (repro.sim.distributed) and pools of more than 2 "
    "workers are not measured: every workload uses at most 2 workers"
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed spec)."""


def metric_table() -> dict[str, dict]:
    """Every metric the harness reports: name -> unit, direction, bound."""
    try:
        benchmark = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise HarnessError(f"{BENCHMARK_PATH} is missing") from None
    table = {}
    for section in ("end_to_end", "per_layer"):
        for entry in benchmark[section]:
            table[entry["name"]] = {**entry, "section": section}
    for name, entry in EXTRA_METRICS.items():
        table[name] = {**entry, "name": name, "section": "extra"}
    return table


def git_revision() -> str:
    """``HEAD`` of the checkout (``-dirty`` if modified), or ``unknown``."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    if revision is None:
        return "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return revision + ("-dirty" if dirty else "")


def run_child(flags: list[str], workdir: Path, deadline: float) -> dict:
    """Start one child, wait for its report; ``setup_s`` measured from here."""
    workdir.mkdir(parents=True)
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        *flags, "--workdir", str(workdir),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(workdir)}
    started = time.monotonic()
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        # The child's pool workers share its session: stop them all.
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise HarnessError(f"child {' '.join(flags)} ran out of time") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        raise HarnessError(
            f"child {' '.join(flags)} exited with status {child.returncode}"
        )
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def end_to_end_metrics(report: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced workload report."""
    passes = report["passes"]
    return {
        "samples_per_s": statistics.median(
            p["samples"] / p["wall_s"] for p in passes
        ),
        "spec_p50_ms": 1000.0 * statistics.median(report["latencies_s"]),
        "setup_s": statistics.median(report["setup_samples_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def extra_metrics(report: dict) -> dict[str, float]:
    """The run-record metrics that BENCHMARK.json does not list."""
    metrics = {}
    if report["per_spec_calls"]:
        try:
            metrics["spec_p90_ms"] = 1000.0 * tail_percentile(
                report["latencies_s"], 90
            )
        except ValueError:
            pass  # too few specs for ten beyond p90 (tiny test matrices)
    metrics["failed_frac"] = report["failed"] / report["attempted"]
    reduction = report.get("pid_loss_reduction_pct")
    if reduction is not None:
        metrics["pid_loss_reduction_err_pp"] = abs(
            reduction - PAPER_PID_LOSS_REDUCTION_PCT
        )
    return metrics


def run_workload(
    name: str, seed: int, seconds: int, trace: bool, base: Path
) -> dict:
    """All children of one workload; the last one's report plus metrics."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    flags = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        report = run_child(flags + ["--trace"], base / f"{name}-trace", deadline)
        report["metrics"] = dict(report["trace"]["metrics"])
    else:
        setup = [
            run_child(flags + ["--setup-only"], base / f"{name}-{i}", deadline)[
                "setup_s"
            ]
            for i in range(SETUP_SAMPLES - 1)
        ]
        report = run_child(flags, base / f"{name}-measure", deadline)
        report["setup_samples_s"] = setup + [report["setup_s"]]
        report["metrics"] = end_to_end_metrics(report)
    report["metrics"].update(extra_metrics(report))
    return report


def _print_workload(report: dict, table: dict, trace: bool) -> None:
    name = report["workload"]
    print(f"== {name}: {report['specs']} specs, "
          f"{len(report['passes'])} passes, golden {report['golden']}, "
          f"{report['failed']} of {report['attempted']} spec runs failed")
    for metric, value in report["metrics"].items():
        entry = table[metric]
        print(f"  {metric:<34} {value:>14.6g} {entry['unit']:<10} "
              f"({entry['better']} is better)")
    if trace:
        _print_where(report["trace"])


def _print_where(traced: dict) -> None:
    """Where the traced pass's time went, by span self time."""
    wall = traced["wall_s"]
    parent = traced["parent"]
    print(f"  where the time goes (traced pass {wall:.3f} s, "
          f"untraced {traced['untraced_wall_s']:.3f} s):")
    rows = sorted(parent.items(), key=lambda item: -item[1][2])
    for span, (calls, _total, self_s) in rows:
        print(f"    {span:<30} {calls:>9} calls {self_s:>9.3f} s "
              f"{100 * self_s / wall:>6.1f}%")
    unwrapped = traced["unwrapped_s"]
    print(f"    {'(unwrapped)':<30} {'':>15} {unwrapped:>9.3f} s "
          f"{100 * unwrapped / wall:>6.1f}%")
    closure = (sum(s[2] for s in parent.values()) + unwrapped) / wall
    if abs(closure - 1.0) > 0.05:
        raise HarnessError(f"span self times cover {closure:.1%} of the wall")
    if traced["workers"]:
        print(f"  pool workers (busy {traced['worker_busy_s']:.3f} s):")
        for span, (calls, _total, self_s) in sorted(
            traced["workers"].items(), key=lambda item: -item[1][2]
        ):
            print(f"    {span:<30} {calls:>9} calls {self_s:>9.3f} s")


def bless(base: Path) -> None:
    """Rewrite golden.json from the serial and cold workloads, seeds 0-4."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from benchmarks.e2e import checks, child

    seeds = {}
    for seed in BLESSED_SEEDS:
        seeds[seed] = child.bless(seed, base / f"bless-{seed}")
        print(f"blessed seed {seed}: {len(seeds[seed]['results'])} specs")
    checks.write_golden(seeds, child.INSTRUCTIONS, git_revision())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=int, default=10,
        help="timed seconds per workload, beyond each one's minimum passes",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced pass",
    )
    parser.add_argument("--record", type=Path, help="run record path")
    parser.add_argument(
        "--bless", action="store_true",
        help="rewrite golden.json for seeds 0-4 instead of measuring",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    base = WORK_ROOT / f"run-{os.getpid()}"
    try:
        if args.bless:
            bless(base)
            return 0
        table = metric_table()
        names = args.workload or list(WORKLOAD_NAMES)
        trace = bool(args.trace)
        reports = {}
        for name in names:
            reports[name] = run_workload(
                name, args.seed, args.seconds, trace, base
            )
            _print_workload(reports[name], table, trace)
    except HarnessError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)

    record = {
        "schema": "repro.e2e.run/v1",
        "revision": git_revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": next(iter(reports.values()))["numpy"],
        "workdir": str(WORK_ROOT),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "not_measured": NOT_MEASURED,
        "workloads": reports,
    }
    record_path = args.record or (
        WORK_ROOT / "records"
        / f"e2e-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"run record: {record_path}")
    print(f"not measured: {NOT_MEASURED} (cpu_count={os.cpu_count()})")

    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{name}/"
        for metric, value in report["metrics"].items():
            if table[metric]["section"] == section:
                metrics[prefix + metric] = {
                    "value": value, "unit": table[metric]["unit"]
                }
    failed = sum(report["failed"] for report in reports.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(report["attempted"] for report in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1
