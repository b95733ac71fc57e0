"""One workload in its own process: set up, time passes, check, report.

The harness (:mod:`benchmarks.e2e.cli`) starts this module once per
set-up sample and workload::

    python -m benchmarks.e2e.child --workload NAME --seed N --seconds S \\
        --workdir DIR [--trace] [--setup-only]

and reads the one JSON object it prints on stdout.  The program is
reached only through public entry points (``run_specs``,
``SweepOptions``, ``Telemetry``, cache directories) and receives only
the generated spec list.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy

from benchmarks.e2e import checks, tracer
from repro.config import DTMConfig
from repro.sim import parallel
from repro.sim.cache import cache_metrics
from repro.telemetry.core import Telemetry

#: Per-spec instruction budget: the experiment drivers' ``--quick``
#: budget, fixed here so the benchmark's inputs never drift with it.
INSTRUCTIONS = 1_500_000

#: Table 11's benchmark suite and policy columns (plus the baseline).
TABLE11_BENCHMARKS = (
    "gcc", "equake", "fma3d", "perlbmk", "mesa", "art", "parser", "bzip2",
    "facerec", "eon", "vortex", "crafty", "apsi", "gzip", "wupwise", "vpr",
    "twolf", "gap",
)
POLICIES = ("none", "toggle1", "toggle2", "m", "p", "pd", "pi", "pid")

#: The extreme- and high-category benchmarks: the hottest, so the ones
#: whose cache entries carry the most DTM activity.
HOT_BENCHMARKS = TABLE11_BENCHMARKS[:8]

SAMPLE_CYCLES = DTMConfig().sampling_interval


def make_specs(benchmarks, seed: int, instructions: int = INSTRUCTIONS):
    """The (benchmark x policy) matrix in Table 11's order."""
    return [
        parallel.WorkSpec(
            benchmark=benchmark,
            policy=policy,
            instructions=instructions,
            seed=seed,
        )
        for benchmark in benchmarks
        for policy in POLICIES
    ]


def _guarded(call):
    """``call()``, or ``None`` after printing the traceback if it raised."""
    try:
        return call()
    except Exception:
        traceback.print_exc()
        return None


# -- set-up, one timed pass, and the cross-path reference per workload --------
def _no_setup(specs, workdir: Path) -> dict:
    return {}


def _serial_pass(specs, state, pass_dir: Path):
    """One ``run_specs`` call per spec: what ``python -m repro run`` does."""
    results, latencies = [], []
    for spec in specs:
        start = time.perf_counter()
        result = _guarded(
            lambda: parallel.run_specs([spec], jobs=1, batch=1, cache=False)[0]
        )
        latencies.append(time.perf_counter() - start)
        results.append(result)
    return results, latencies, None


def _pool_pass(specs, state, pass_dir: Path):
    options = parallel.SweepOptions(
        checkpoint_path=str(pass_dir / "journal.jsonl")
    )
    results = _guarded(lambda: parallel.run_specs(
        specs, jobs=2, batch=8, cache=False, options=options
    ))
    return results, None, None


def _cold_pass(specs, state, pass_dir: Path):
    sink = Telemetry()
    results = _guarded(lambda: parallel.run_specs(
        specs, jobs=1, batch=1, cache=str(pass_dir / "cache"), telemetry=sink
    ))
    return results, None, sink


def _warm_setup(specs, workdir: Path) -> dict:
    # Filled through the lane-batched pool path: the same entries the
    # serial cold sweep writes (telemetry parity), in a fifth the time.
    sink = Telemetry()
    cache_dir = workdir / "warm-cache"
    results = parallel.run_specs(
        specs, jobs=2, batch=8, cache=str(cache_dir), telemetry=sink
    )
    return {"cache": cache_dir, "results": results, "sink": sink}


def _warm_pass(specs, state, pass_dir: Path):
    sink = Telemetry()
    results = _guarded(lambda: parallel.run_specs(
        specs, jobs=1, batch=1, cache=str(state["cache"]), telemetry=sink
    ))
    return results, None, sink


# References run a different kernel from the workload (lane kernel for
# the scalar workloads and the other way round), so a bug in one kernel
# cannot agree with itself.
def _lane_reference(specs, state):
    return parallel.run_specs(specs, jobs=2, batch=8, cache=False), None


def _scalar_reference(specs, state):
    return parallel.run_specs(specs, jobs=2, batch=1, cache=False), None


def _lane_telemetry_reference(specs, state):
    sink = Telemetry()
    results = parallel.run_specs(
        specs, jobs=2, batch=8, cache=False, telemetry=sink
    )
    return results, sink


def _fill_reference(specs, state):
    return state["results"], state["sink"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs and how one pass runs them."""

    name: str
    benchmarks: tuple[str, ...]
    #: Fewest timed passes; more run until ``--seconds`` is spent.
    min_passes: int
    #: Pool width of a timed pass (0: the pass starts no pool).
    pool_workers: int
    setup: Callable
    #: ``(specs, state, pass_dir) -> (results, latencies, sink)``; a pass
    #: that returns a telemetry sink has it checked, not just its results.
    run_pass: Callable
    reference: Callable


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("t11_serial", TABLE11_BENCHMARKS, 2, 0,
                 _no_setup, _serial_pass, _lane_reference),
        Workload("t11_jobs2_batch8", TABLE11_BENCHMARKS, 3, 2,
                 _no_setup, _pool_pass, _scalar_reference),
        Workload("hot_cache_cold", HOT_BENCHMARKS, 1, 0,
                 _no_setup, _cold_pass, _lane_telemetry_reference),
        Workload("hot_cache_warm", HOT_BENCHMARKS, 4, 0,
                 _warm_setup, _warm_pass, _fill_reference),
    )
}


# -- measurement --------------------------------------------------------------
@dataclass
class Pass:
    """What one timed pass produced."""

    wall_s: float
    latencies_s: list[float]
    digests: list[str | None]
    samples: int
    telemetry: str | None
    results: list
    #: Whether each spec was its own call (else one call ran them all).
    per_spec_calls: bool


def _timed_pass(workload: Workload, specs, state, pass_dir: Path) -> Pass:
    pass_dir.mkdir(parents=True)
    start = time.perf_counter()
    results, latencies, sink = workload.run_pass(specs, state, pass_dir)
    wall = time.perf_counter() - start
    if results is None:
        results = [None] * len(specs)
    per_spec_calls = latencies is not None
    if not per_spec_calls:
        # One call returns the whole matrix: every spec's result reaches
        # the caller when the call returns.
        latencies = [wall] * len(specs)
    return Pass(
        wall_s=wall,
        latencies_s=latencies,
        digests=[
            None if result is None else checks.result_digest(result)
            for result in results
        ],
        samples=sum(
            result.cycles // SAMPLE_CYCLES
            for result in results
            if result is not None
        ),
        telemetry=None if sink is None else checks.telemetry_digest(sink),
        results=results,
        per_spec_calls=per_spec_calls,
    )


def _log_bytes(root: Path, name: str) -> int:
    return sum(path.stat().st_size for path in root.rglob(name))


def _peak_rss_mb() -> float:
    """Larger high-water RSS of this process and its reaped children."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _traced_pass(workload, specs, state, workdir: Path, untraced_wall: float):
    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    counters = cache_metrics()
    hits0 = counters.counter("cache.hits").value
    misses0 = counters.counter("cache.misses").value
    cache0 = _log_bytes(workdir, "cache.log")
    journal0 = _log_bytes(workdir, "journal.jsonl")
    spans = tracer.Tracer(trace_dir)
    spans.install(tracer.layer_targets())
    try:
        traced = _timed_pass(workload, specs, state, workdir / "pass-traced")
    finally:
        spans.restore()
    hits = counters.counter("cache.hits").value - hits0
    lookups = hits + counters.counter("cache.misses").value - misses0
    workers, busy = tracer.merge_worker_files(trace_dir)
    metrics = tracer.layer_metrics(
        spans.stats,
        workers,
        wall_s=traced.wall_s,
        untraced_wall_s=untraced_wall,
        pool_workers=workload.pool_workers,
        worker_busy_s=busy,
        cache_hits=hits,
        cache_lookups=lookups,
        cache_bytes=_log_bytes(workdir, "cache.log") - cache0,
        journal_bytes=_log_bytes(workdir, "journal.jsonl") - journal0,
    )
    report = {
        "metrics": metrics,
        "wall_s": traced.wall_s,
        "untraced_wall_s": untraced_wall,
        "parent": spans.stats,
        "workers": workers,
        "worker_busy_s": busy,
        "unwrapped_s": traced.wall_s - spans.top_s,
    }
    return traced, report


def _expected(workload: Workload, specs, state, seed: int):
    """Golden digests for a blessed seed, else a cross-path reference run."""
    golden = checks.load_golden(seed, specs[0].instructions)
    keys = [checks.spec_key(spec) for spec in specs]
    if golden is not None and all(key in golden["results"] for key in keys):
        return "verified", golden["results"], golden["hot_telemetry"]
    results, sink = workload.reference(specs, state)
    digests = {
        key: checks.result_digest(result)
        for key, result in zip(keys, results)
    }
    return "unverified", digests, (
        None if sink is None else checks.telemetry_digest(sink)
    )


def _pid_loss_reduction(specs, results):
    """PID's loss reduction vs toggle1 when the full Table 11 ran, else None."""
    table = dict(zip(((s.benchmark, s.policy) for s in specs), results))
    needed = {
        (benchmark, policy)
        for benchmark in TABLE11_BENCHMARKS
        for policy in ("none", "toggle1", "pid")
    }
    if not needed <= table.keys() or any(table[k] is None for k in needed):
        return None
    return checks.pid_loss_reduction({key: table[key] for key in needed})


def measure(
    workload: Workload,
    specs,
    state: dict,
    workdir: Path,
    seconds: float,
    *,
    seed: int = 0,
    trace: bool = False,
    expected=None,
) -> dict:
    """Run timed passes for ``seconds`` after set-up, then check every spec.

    ``state`` is what ``workload.setup`` returned.  ``expected`` is
    ``(golden label, {spec key: digest}, telemetry digest)``; by default
    the golden file or a reference run supplies it.
    """
    passes: list[Pass] = []
    while (
        len(passes) < workload.min_passes
        or sum(p.wall_s for p in passes) < seconds
    ):
        pass_dir = workdir / f"pass-{len(passes)}"
        passes.append(_timed_pass(workload, specs, state, pass_dir))
        shutil.rmtree(pass_dir)
        if passes[-1].digests.count(None) == len(specs):
            break  # the pass failed outright; more would only repeat it
    rss = _peak_rss_mb()
    latencies = [latency for p in passes for latency in p.latencies_s]
    traced = None
    if trace:
        untraced = statistics.median(p.wall_s for p in passes)
        traced_pass, traced = _traced_pass(
            workload, specs, state, workdir, untraced
        )
        passes.append(traced_pass)
    if expected is None:
        expected = _expected(workload, specs, state, seed)
    golden, digests, telemetry = expected
    keys = [checks.spec_key(spec) for spec in specs]
    failed = []
    for p in passes:
        count = checks.count_failures(p.digests, digests, keys)
        if p.telemetry is not None and p.telemetry != telemetry:
            count = len(specs)
        failed.append(count)
    return {
        "workload": workload.name,
        "specs": len(specs),
        "golden": golden,
        "passes": [
            {"wall_s": p.wall_s, "samples": p.samples, "failed": f}
            for p, f in zip(passes, failed)
        ],
        "latencies_s": latencies,
        "per_spec_calls": passes[0].per_spec_calls,
        "peak_rss_mb": rss,
        "attempted": len(specs) * len(passes),
        "failed": sum(failed),
        "pid_loss_reduction_pct": _pid_loss_reduction(specs, passes[0].results),
        "trace": traced,
    }


def bless(seed: int, workdir: Path) -> dict:
    """Golden digests for one seed, from the serial and cold workloads."""
    specs = make_specs(TABLE11_BENCHMARKS, seed)
    serial = _timed_pass(WORKLOADS["t11_serial"], specs, {}, workdir / "serial")
    if None in serial.digests:
        raise RuntimeError(f"seed {seed}: a Table 11 spec failed")
    hot = make_specs(HOT_BENCHMARKS, seed)
    cold = _timed_pass(WORKLOADS["hot_cache_cold"], hot, {}, workdir / "cold")
    if None in cold.digests:
        raise RuntimeError(f"seed {seed}: a hot spec failed")
    return {
        "results": {
            checks.spec_key(spec): digest
            for spec, digest in zip(specs, serial.digests)
        },
        "hot_telemetry": cold.telemetry,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    specs = make_specs(workload.benchmarks, args.seed)
    state = workload.setup(specs, args.workdir)
    report = {"ready": time.monotonic(), "numpy": numpy.__version__}
    if not args.setup_only:
        report.update(measure(
            workload, specs, state, args.workdir, args.seconds,
            seed=args.seed, trace=args.trace,
        ))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
