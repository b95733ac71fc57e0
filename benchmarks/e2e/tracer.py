"""Per-layer spans for the benchmark's ``--trace`` run.

The harness records spans around public functions and methods of the
program by patching them from here; nothing inside ``src/`` knows it is
being traced.  Methods are patched on their classes and module functions
where they are looked up (``merge_telemetry`` inside
:mod:`repro.sim.parallel`, ``result_to_dict`` inside
:mod:`repro.sim.cache`, ...).  Patches go in before a pass starts its
pool, and pools fork, so workers inherit them; each worker writes its
own aggregate to ``<trace_dir>/<pid>.json`` whenever one of its
top-level (kernel) spans returns, and the parent merges those files.

A span's self time is its duration minus the time its child spans
cover, kept by a stack.  A call nested directly inside a span of the
same name (``store`` -> ``store_payload``) is folded into the outer
span, so ``calls`` counts each operation once.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

#: Spans reported with both ``.calls`` and ``.self_s``.
COUNTED_SPANS = (
    "thermal.fractions_above",
    "thermal.advance_from",
    "thermal.advance_batch",
    "dtm.on_sample",
    "sim.fast.run",
    "sim.batch.run_outcomes",
    "sim.checkpoint.append",
    "io.fsync",
    "telemetry.record_sample",
    "sim.cache.store",
    "sim.cache.lookup",
)

#: Spans reported with ``.self_s`` only.
SELF_ONLY_SPANS = (
    "dtm.policy.decide",
    "telemetry.merge",
    "sim.codec.encode",
    "sim.codec.decode",
    "sim.codec.fold",
    "sim.cache.flush",
)

#: The executor entry points; their self time is the parent's wait.
EXECUTOR_SPANS = ("sim.parallel.run_specs", "sim.parallel.run_outcomes")


def layer_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every traced entry point."""
    from repro.dtm import policies
    from repro.dtm.manager import DTMManager
    from repro.sim import cache, checkpoint, parallel
    from repro.sim.batch import BatchEngine
    from repro.sim.cache import ResultCache
    from repro.sim.checkpoint import CheckpointJournal
    from repro.sim.fast import FastEngine
    from repro.telemetry.core import Telemetry
    from repro.thermal.lumped import LumpedThermalModel

    decide_owners = [
        cls
        for cls in vars(policies).values()
        if isinstance(cls, type)
        and cls.__module__ == policies.__name__
        and "decide" in vars(cls)
    ]
    return [
        (LumpedThermalModel, "fractions_above", "thermal.fractions_above"),
        (LumpedThermalModel, "advance_from", "thermal.advance_from"),
        (LumpedThermalModel, "advance_batch", "thermal.advance_batch"),
        (DTMManager, "on_sample", "dtm.on_sample"),
        *[(cls, "decide", "dtm.policy.decide") for cls in decide_owners],
        (FastEngine, "run", "sim.fast.run"),
        (BatchEngine, "run_outcomes", "sim.batch.run_outcomes"),
        (parallel, "run_specs", "sim.parallel.run_specs"),
        (parallel, "run_outcomes", "sim.parallel.run_outcomes"),
        (CheckpointJournal, "append_outcome", "sim.checkpoint.append"),
        (CheckpointJournal, "append_payload", "sim.checkpoint.append"),
        (os, "fsync", "io.fsync"),
        (Telemetry, "record_sample", "telemetry.record_sample"),
        (parallel, "merge_telemetry", "telemetry.merge"),
        (cache, "result_to_dict", "sim.codec.encode"),
        (cache, "telemetry_to_dict", "sim.codec.encode"),
        (checkpoint, "result_to_dict", "sim.codec.encode"),
        (checkpoint, "telemetry_to_dict", "sim.codec.encode"),
        (parallel, "result_from_dict", "sim.codec.decode"),
        (parallel, "fold_saved_telemetry", "sim.codec.fold"),
        (ResultCache, "store", "sim.cache.store"),
        (ResultCache, "store_payload", "sim.cache.store"),
        (ResultCache, "lookup", "sim.cache.lookup"),
        (ResultCache, "flush", "sim.cache.flush"),
    ]


class Tracer:
    """Span aggregates of one process: ``name -> [calls, total_s, self_s]``."""

    def __init__(self, trace_dir: Path | None = None, clock=time.perf_counter):
        self.trace_dir = trace_dir
        self.clock = clock
        self.stats: dict[str, list] = {}
        #: Summed duration of top-level spans (in a worker: kernel time).
        self.top_s = 0.0
        self.in_worker = False
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """``fn`` recorded as span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                stack.pop()
                self._close(name, elapsed, elapsed - frame[1])

        return traced

    def _close(self, name: str, elapsed: float, self_time: float) -> None:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += self_time
        if self._stack:
            self._stack[-1][1] += elapsed
            return
        self.top_s += elapsed
        if self.in_worker:
            self.dump()

    def install(self, targets) -> None:
        """Patch every ``(owner, attribute, span name)`` target."""
        if not self._patches:
            os.register_at_fork(after_in_child=self._enter_worker)
        for owner, attribute, name in targets:
            original = (
                vars(owner)[attribute]
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            setattr(owner, attribute, self.wrap(name, original))
            self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Undo :meth:`install`; spans stop being recorded."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _enter_worker(self) -> None:
        # A forked pool worker starts with the parent's open spans on
        # its copy of the stack; they never close here, so drop them.
        if not self._patches:
            return
        self.stats = {}
        self._stack = []
        self.top_s = 0.0
        self.in_worker = True

    def dump(self) -> None:
        """Write this process's aggregate to ``<trace_dir>/<pid>.json``."""
        path = Path(self.trace_dir) / f"{os.getpid()}.json"
        partial = path.with_suffix(".part")
        partial.write_text(json.dumps({"stats": self.stats, "top_s": self.top_s}))
        os.replace(partial, path)


def merge_worker_files(trace_dir: Path) -> tuple[dict[str, list], float]:
    """Summed worker aggregates and the workers' total top-level time."""
    stats: dict[str, list] = {}
    busy = 0.0
    for path in sorted(Path(trace_dir).glob("*.json")):
        data = json.loads(path.read_text())
        busy += data["top_s"]
        for name, values in data["stats"].items():
            merged = stats.setdefault(name, [0, 0.0, 0.0])
            for index, value in enumerate(values):
                merged[index] += value
    return stats, busy


def layer_metrics(
    parent: dict[str, list],
    workers: dict[str, list],
    *,
    wall_s: float,
    untraced_wall_s: float,
    pool_workers: int,
    worker_busy_s: float,
    cache_hits: float,
    cache_lookups: float,
    cache_bytes: int,
    journal_bytes: int,
) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""

    def stat(name: str, index: int):
        return (
            parent.get(name, [0, 0.0, 0.0])[index]
            + workers.get(name, [0, 0.0, 0.0])[index]
        )

    metrics: dict[str, float] = {}
    for name in COUNTED_SPANS:
        metrics[f"{name}.calls"] = stat(name, 0)
        metrics[f"{name}.self_s"] = stat(name, 2)
    for name in SELF_ONLY_SPANS:
        metrics[f"{name}.self_s"] = stat(name, 2)
    metrics["sim.parallel.wait_s"] = sum(stat(name, 2) for name in EXECUTOR_SPANS)
    metrics["sim.parallel.pool_busy_frac"] = (
        worker_busy_s / (pool_workers * wall_s) if pool_workers else 0.0
    )
    metrics["sim.checkpoint.bytes"] = journal_bytes
    metrics["sim.cache.bytes"] = cache_bytes
    metrics["sim.cache.hit_ratio"] = (
        cache_hits / cache_lookups if cache_lookups else 0.0
    )
    metrics["trace.overhead_pct"] = 100.0 * (wall_s / untraced_wall_s - 1.0)
    return metrics
