"""Correctness checks: per-spec result digests, telemetry digests, golden file.

Digests are built here from public fields only -- the dataclass fields
of :class:`~repro.sim.results.RunResult` and the retained records,
events and metrics of a :class:`~repro.telemetry.core.Telemetry` sink --
with every float rendered by ``float.hex``.  They deliberately do not
go through :mod:`repro.sim.codec`: a codec or cache-schema change can
then neither hide nor fake a mismatch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SCHEMA = "repro.e2e.golden/v1"

#: Host-time histogram: it measures the simulator, not the simulation,
#: so two runs of the same spec never agree on it.
LATENCY_METRIC = "engine.sample_latency_seconds"


def canonical(value):
    """A JSON-ready view of ``value`` with every float as ``float.hex``."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [value.dtype.str, list(value.shape), canonical(value.tolist())]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    raise TypeError(f"no canonical view for {type(value).__name__}")


def _digest(view) -> str:
    text = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def spec_key(spec) -> str:
    """The golden-file key of one (benchmark, policy) spec."""
    return f"{spec.benchmark}/{spec.policy}"


def result_digest(result) -> str:
    """Digest of every public field of one ``RunResult`` (history too)."""
    return _digest(canonical(result))


def telemetry_digest(sink) -> str:
    """Digest of a sink's retained trace, events and metrics snapshot.

    ``cache.*`` events (and their ``events.cache.*`` counters) are left
    out because the cache reports its own hits there, and so is the
    sample-latency histogram, which is host time.
    """
    metrics = {
        name: snapshot
        for name, snapshot in sink.metrics.snapshot().items()
        if name != LATENCY_METRIC and not name.startswith("events.cache.")
    }
    return _digest(canonical({
        "emitted": sink.trace.emitted,
        "records": [record.to_dict() for record in sink.trace.records()],
        "events": [
            event.to_dict()
            for event in sink.trace.events
            if not event.kind.startswith("cache.")
        ],
        "metrics": metrics,
    }))


def load_golden(seed: int, instructions: int):
    """The blessed digests for ``seed``, or ``None`` if it was not blessed."""
    try:
        data = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    if data.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(f"{GOLDEN_PATH}: schema is not {GOLDEN_SCHEMA}")
    if data.get("instructions") != instructions:
        return None
    return data["seeds"].get(str(seed))


def write_golden(seeds: dict, instructions: int, revision: str) -> None:
    """Write the golden file for the given ``{seed: digests}`` mapping."""
    data = {
        "schema": GOLDEN_SCHEMA,
        "instructions": instructions,
        "revision": revision,
        "seeds": {str(seed): seeds[seed] for seed in sorted(seeds)},
    }
    text = json.dumps(data, indent=1, sort_keys=True)
    GOLDEN_PATH.write_text(text + "\n")


def count_failures(digests, expected: dict, keys) -> int:
    """Specs whose result is missing (``None``) or differs from ``expected``."""
    return sum(
        1
        for digest, key in zip(digests, keys)
        if digest is None or expected.get(key) != digest
    )


def pid_loss_reduction(results: dict) -> float:
    """PID's mean performance-loss reduction against ``toggle1``, in %.

    ``results`` maps ``(benchmark, policy)`` to a ``RunResult``; the
    arithmetic is Table 11's summary row.
    """
    benchmarks = sorted({benchmark for benchmark, _ in results})

    def mean_loss(policy: str) -> float:
        losses = [
            1.0 - results[(b, policy)].ipc / results[(b, "none")].ipc
            for b in benchmarks
        ]
        return sum(losses) / len(losses)

    toggle1 = mean_loss("toggle1")
    if toggle1 == 0:
        return math.nan
    return 100.0 * (1.0 - mean_loss("pid") / toggle1)
