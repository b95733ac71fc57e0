"""Multicore runs held to goldens, float for float.

``tests/multicore_goldens.json`` holds every float of a set of
:class:`~repro.multicore.results.MulticoreRunResult`\\ s as
``float.hex`` strings, so a change to any bit of a multicore run shows
up here.  The cases cover chips of 1, 2, 4 and 8 cores; the ``none``,
``pid`` and ``toggle1`` policies; no coordinator and each arbitration
strategy; default and zero core-to-core coupling; a faulty sensor under
a failsafe guard; a ``max_cycles`` stop followed by a second run of the
same engine; and, for one coordinated run, the telemetry it records:
trace rows, events and metrics (all but the wall-clock sample-latency
histogram).

Regenerate the goldens only for a deliberate numerics change::

    PYTHONPATH=src python tests/test_multicore_goldens.py
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.config import FailsafeConfig, TelemetryConfig
from repro.faults import FaultSchedule, FaultWindow
from repro.multicore import (
    MulticoreEngine,
    MulticoreFloorplan,
    ThermalBudgetCoordinator,
)
from repro.sim.codec import result_to_dict
from repro.telemetry import Telemetry

GOLDENS_PATH = Path(__file__).with_name("multicore_goldens.json")

MIX8 = ("gcc", "gzip", "art", "mesa", "equake", "bzip2", "crafty", "vpr")


def _hexed(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def _run(engine, instructions, max_cycles=None) -> dict:
    return _hexed(result_to_dict(engine.run(instructions, max_cycles)))


def _plain(
    cores, policy, coordinator=None, coupling=1.0, instructions=1_000_000
):
    floorplan = MulticoreFloorplan.tile(
        n_cores=len(cores), coupling_scale=coupling
    )
    engine = MulticoreEngine(
        cores, policy=policy, floorplan=floorplan, coordinator=coordinator
    )
    return {"result": _run(engine, instructions)}


def _faulty() -> dict:
    schedule = FaultSchedule(
        3,
        dropout_rate=0.1,
        spike_rate=0.05,
        sensor_stuck_windows=(FaultWindow(40, 120, value=120.0),),
    )
    engine = MulticoreEngine(
        ("gcc", "art"),
        policy="pid",
        fault_schedules={0: schedule},
        failsafe=FailsafeConfig(),
    )
    return {"result": _run(engine, 1_000_000)}


def _stopped_then_rerun() -> dict:
    engine = MulticoreEngine(
        ("gcc", "gzip", "art", "mesa"),
        policy="pid",
        coordinator="hottest",
        seed=2,
    )
    first = _run(engine, 10_000_000, max_cycles=400_500)
    second = _run(engine, 300_000)
    return {"result": first, "second": second}


def _demoting() -> dict:
    coordinator = ThermalBudgetCoordinator(
        4,
        strategy="proportional",
        duty_budget=2.5,
        demote_temperature=101.0,
        demote_trigger_samples=3,
        rearm_samples=20,
    )
    engine = MulticoreEngine(
        ("gcc", "equake", "art", "mesa"),
        policy="toggle1",
        coordinator=coordinator,
    )
    return {"result": _run(engine, 1_000_000)}


def _telemetry() -> dict:
    telemetry = Telemetry(TelemetryConfig())
    engine = MulticoreEngine(
        ("gcc", "art", "mesa"),
        policy="pid",
        floorplan=MulticoreFloorplan.tile(n_cores=3, coupling_scale=4.0),
        coordinator=ThermalBudgetCoordinator(
            3,
            strategy="hottest",
            duty_budget=2.2,
            demote_temperature=101.5,
            demote_trigger_samples=2,
            rearm_samples=5,
        ),
        telemetry=telemetry,
    )
    result = _run(engine, 500_000)
    metrics = telemetry.metrics.snapshot()
    # Wall clock: no golden can hold it.
    metrics.pop("engine.sample_latency_seconds")
    return {
        "result": result,
        "records": [
            _hexed(dataclasses.asdict(record))
            for record in telemetry.trace.records()
        ],
        "events": [_hexed(event.to_dict()) for event in telemetry.trace.events],
        "metrics": _hexed(metrics),
    }


CASES = {
    "1core/pid": lambda: _plain(("gcc",), "pid"),
    "1core/toggle1/decoupled": lambda: _plain(("art",), "toggle1", coupling=0.0),
    "2core/none": lambda: _plain(("gcc", "gzip"), "none"),
    "2core/toggle1/uniform": lambda: _plain(("gcc", "art"), "toggle1", "uniform"),
    "4core/pid": lambda: _plain(("gcc", "gzip", "art", "mesa"), "pid"),
    "4core/pid/hottest": lambda: _plain(
        ("gcc", "equake", "art", "mesa"), "pid", "hottest"
    ),
    "4core/pid/decoupled": lambda: _plain(
        ("gcc", "equake", "art", "mesa"), "pid", coupling=0.0
    ),
    "4core/toggle1/proportional/decoupled": lambda: _plain(
        ("gcc", "equake", "art", "mesa"), "toggle1", "proportional",
        coupling=0.0,
    ),
    "8core/none": lambda: _plain(MIX8, "none", instructions=600_000),
    "8core/pid/proportional": lambda: _plain(
        MIX8, "pid", "proportional", instructions=600_000
    ),
    "8core/toggle1/uniform/decoupled": lambda: _plain(
        MIX8, "toggle1", "uniform", coupling=0.0, instructions=600_000
    ),
    "2core/pid/fault_failsafe": _faulty,
    "4core/pid/hottest/max_cycles_then_rerun": _stopped_then_rerun,
    "4core/toggle1/proportional/demoting": _demoting,
    "3core/pid/hottest/telemetry": _telemetry,
}


def _goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_multicore_run_matches_golden(name):
    assert CASES[name]() == _goldens()[name]


def test_goldens_cover_every_case():
    assert sorted(_goldens()) == sorted(CASES)


def test_goldens_exercise_crossings_and_coordination():
    # Goldens that never cross a threshold or never cut a duty would
    # hold the threshold and arbitration paths to nothing.
    goldens = _goldens()
    crossing = [
        float.fromhex(core["emergency_fraction"])
        for golden in goldens.values()
        for core in golden["result"]["cores"]
    ]
    assert any(0.0 < value < 1.0 for value in crossing)
    demoted = goldens["4core/toggle1/proportional/demoting"]["result"]
    assert any(core["demoted_samples"] for core in demoted["cores"])
    assert float.fromhex(demoted["extra"]["coordinator_budget_samples"]) > 0
    telemetry = goldens["3core/pid/hottest/telemetry"]
    assert telemetry["events"]
    assert not any(
        math.isnan(float.fromhex(record["max_temp"]))
        for record in telemetry["records"]
    )


if __name__ == "__main__":
    GOLDENS_PATH.write_text(
        json.dumps({name: CASES[name]() for name in sorted(CASES)}, indent=1)
        + "\n",
        encoding="utf-8",
    )
