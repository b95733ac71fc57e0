"""Byte pins of the trace outputs that leave the process.

The digests were taken from the per-record trace recorder that the
columnar one replaced, and guard what readers and caches depend on:

* the ``repro.trace/v1`` JSONL export of a single-core run;
* the saved-telemetry payload of one lane of a ragged two-lane group
  (the bytes the result cache and the checkpoint journal write);
* the metrics snapshots of both.

Sample latencies are wall-clock, so the lane sinks and the metrics run
time no samples; everything else is deterministic.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import FailsafeConfig, TelemetryConfig
from repro.sim.batch import run_spec_lanes
from repro.sim.codec import telemetry_to_dict
from repro.sim.parallel import _worker_telemetry_config, matrix_specs
from repro.sim.sweep import run_one
from repro.telemetry import Telemetry, write_trace_jsonl

_JSONL = {
    "default": "0a96be1559f7ae6a730fb5af81d339d80c4eec01104fecf1fff1702d4ea7b151",
    "decimate-50": "b52b09aaeae27d0366cb8edbefd7a79b417fb83dd117f1f1b7f5676803f6fb76",
    "ring-64": "da07b21cdeb1f3c7db1dde9cc1ae40bd619acd276bc907d455d1035b3dc5602f",
}
_RUN_METRICS = (
    "f0b6b3da1719fe8cd34ca50cbde27a9b26e9d9bdb3091d696a7bcc0da2885161"
)
_LANE_PAYLOAD = (
    "fafa6b2ef9bae877a4dd15fda50d6026a3ec7caf003ee2e1c0509e1490bc3190"
)
_LANE_METRICS = (
    "f0ec7a7f43af396a68659d619233c33d6e8bc51d5180e9fc33b97ead2a8ae9a2"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _untimed() -> Telemetry:
    return Telemetry(TelemetryConfig(sample_latency=False, profile=False))


def _run_lanes() -> list[Telemetry]:
    specs = [
        *matrix_specs(["gcc"], ["pid"], instructions=300_000),
        *matrix_specs(["art"], ["toggle1"], instructions=200_000),
    ]
    config = _worker_telemetry_config(
        TelemetryConfig(sample_latency=False, profile=False)
    )
    locals_ = [Telemetry(config) for _ in specs]
    outcomes = run_spec_lanes(specs, locals_)
    assert all(outcome.error is None for outcome in outcomes)
    return locals_


@pytest.fixture(scope="module")
def lanes():
    return _run_lanes()


def _export(case: str, path) -> bytes:
    """The JSONL bytes of one pinned run."""
    if case == "default":
        telemetry = Telemetry()
        run_one("gcc", "pid", instructions=300_000, telemetry=telemetry)
    else:
        # Long enough to cross a stage chunk and to decimate or wrap.
        mode, capacity = case.split("-")
        telemetry = Telemetry(
            TelemetryConfig(trace_capacity=int(capacity), trace_mode=mode)
        )
        run_one(
            "art",
            "pi",
            instructions=1_500_000,
            failsafe=FailsafeConfig(),
            telemetry=telemetry,
        )
    write_trace_jsonl(telemetry.trace, path)
    return path.read_bytes()


@pytest.mark.parametrize("case", sorted(_JSONL))
def test_jsonl_export_bytes(tmp_path, case):
    assert _sha256(_export(case, tmp_path / "trace.jsonl")) == _JSONL[case]


def test_run_metrics_snapshot():
    telemetry = _untimed()
    run_one("gcc", "pid", instructions=300_000, telemetry=telemetry)
    text = json.dumps(telemetry.snapshot()["metrics"])
    assert _sha256(text.encode()) == _RUN_METRICS


def test_lane_payload_bytes(lanes):
    text = json.dumps(telemetry_to_dict(lanes[0]))
    assert _sha256(text.encode()) == _LANE_PAYLOAD


def test_lane_metrics_snapshot(lanes):
    text = json.dumps([lane.snapshot()["metrics"] for lane in lanes])
    assert _sha256(text.encode()) == _LANE_METRICS
