"""Recorded runs held to goldens, float for float.

``tests/trace_goldens.json`` holds what a set of short recorded runs
leave in their telemetry, every float as a ``float.hex`` string: each
retained trace column (the float fields, the block temperatures, the
int and text fields), the event stream and the metrics snapshot, all
but the wall-clock sample-latency histogram.  A change to any bit the
recording path writes shows up here.  The cases cover lone ``none``,
``toggle1``, ``m`` and ``pid`` runs; a ``pid`` run with a fault
schedule under a failsafe guard; a run with warmup; a ragged
three-lane batch whose longest lane turns non-finite mid-chunk (its
leakage turns NaN); and a recorded two-core chip.

Regenerate the goldens only for a deliberate numerics change::

    PYTHONPATH=src python tests/test_trace_goldens.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.config import DTMConfig, FailsafeConfig
from repro.dtm.policies import make_policy
from repro.faults import FaultSchedule, FaultWindow
from repro.multicore import MulticoreEngine
from repro.power.leakage import LeakageModel
from repro.sim.batch import BatchEngine
from repro.sim.fast import FastEngine
from repro.sim.sweep import run_one
from repro.telemetry import Telemetry
from repro.telemetry.trace import FLOAT_FIELDS, INT_FIELDS, TEXT_FIELDS
from repro.thermal.floorplan import Floorplan
from repro.workloads.profiles import get_profile

GOLDENS_PATH = Path(__file__).with_name("trace_goldens.json")

#: The wall-clock histogram no golden can hold.
LATENCY = "engine.sample_latency_seconds"


def _hexed(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def _recorded(telemetry: Telemetry) -> dict:
    """Every retained column, the events and the metrics, hexed."""
    blocks = telemetry.trace.blocks()
    floats = [row for block in blocks for row in block.floats.tolist()]
    ints = [row for block in blocks for row in block.ints.tolist()]
    text = [row for block in blocks for row in block.text.tolist()]
    scalars = len(FLOAT_FIELDS)
    columns = {
        name: [row[column] for row in floats]
        for column, name in enumerate(FLOAT_FIELDS)
    }
    columns["block_temps"] = [row[scalars:] for row in floats]
    for fields, rows in ((INT_FIELDS, ints), (TEXT_FIELDS, text)):
        for column, name in enumerate(fields):
            columns[name] = [row[column] for row in rows]
    metrics = telemetry.metrics.snapshot()
    metrics.pop(LATENCY)
    return _hexed({
        "emitted": telemetry.trace.emitted,
        "columns": columns,
        "events": [event.to_dict() for event in telemetry.trace.events],
        "metrics": metrics,
    })


def _lone(policy: str, **fields) -> dict:
    telemetry = Telemetry()
    run_one("gcc", policy, instructions=250_000, telemetry=telemetry, **fields)
    return _recorded(telemetry)


def _faulty() -> dict:
    schedule = FaultSchedule(
        3,
        dropout_rate=0.1,
        spike_rate=0.05,
        sensor_stuck_windows=(FaultWindow(40, 120, value=120.0),),
    )
    return _lone("pid", fault_schedule=schedule, failsafe=FailsafeConfig())


class _PoisonedLeakage:
    """Real leakage power until call ``at``, NaN power from then on."""

    def __init__(self, at: int) -> None:
        self.model = LeakageModel()
        self.at = at
        self.calls = 0

    def power(self, peaks, temps):
        self.calls += 1
        leak = self.model.power(peaks, temps)
        return leak if self.calls < self.at else leak * math.nan


def _ragged_lanes() -> dict:
    """Three lanes of unequal budgets; the longest turns non-finite
    mid-chunk while the other two leave before and after it."""
    floorplan = Floorplan.default()
    lanes = (
        ("gcc", "pid", 900_000, _PoisonedLeakage(560)),
        ("art", "toggle1", 150_000, None),
        ("gzip", "pi", 400_000, None),
    )
    engines = [
        FastEngine(
            get_profile(benchmark),
            policy=make_policy(policy, floorplan),
            floorplan=floorplan,
            seed=seed,
            telemetry=Telemetry(),
            **({} if leakage is None else {"leakage": leakage}),
        )
        for seed, (benchmark, policy, _, leakage) in enumerate(lanes)
    ]
    outcomes = BatchEngine(engines).run_outcomes(
        instructions=[lane[2] for lane in lanes]
    )
    assert outcomes[0].error is not None
    assert all(outcome.error is None for outcome in outcomes[1:])
    return {
        f"lane{slot}": _recorded(engine.telemetry)
        for slot, engine in enumerate(engines)
    }


def _chip() -> dict:
    telemetry = Telemetry()
    MulticoreEngine(
        ("gcc", "art"), policy="toggle1", dtm_config=INTERRUPTS,
        telemetry=telemetry,
    ).run(250_000)
    return _recorded(telemetry)


#: A trigger these short runs cross, with interrupts that stall.
INTERRUPTS = DTMConfig(use_interrupts=True, nonct_trigger=101.0, policy_delay=2000)
#: A setpoint these short runs reach.
SETPOINT = 101.0

CASES = {
    "lone/none": lambda: _lone("none"),
    "lone/toggle1": lambda: _lone("toggle1", dtm_config=INTERRUPTS),
    "lone/m": lambda: _lone("m"),
    "lone/pid": lambda: _lone("pid", setpoint=SETPOINT),
    "lone/pid/fault_failsafe": _faulty,
    "lone/pid/warmup": lambda: _lone(
        "pid", setpoint=SETPOINT, warmup_instructions=150_000
    ),
    "lanes/ragged_non_finite": _ragged_lanes,
    "chip/2core/toggle1": _chip,
}


def _goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_recorded_run_matches_golden(name):
    assert CASES[name]() == _goldens()[name]


def test_goldens_cover_every_case():
    assert sorted(_goldens()) == sorted(CASES)


def test_goldens_exercise_the_controller_half():
    # Goldens whose controller columns were all NaN, that never cut a
    # duty, stalled or engaged a failsafe, would hold the staged halves
    # to nothing.
    goldens = _goldens()
    for name in ("lone/toggle1", "lone/m", "lone/pid", "lone/pid/warmup"):
        duty = goldens[name]["columns"]["duty"]
        assert min(map(float.fromhex, duty)) < 1.0, name
    pid = goldens["lone/pid"]["columns"]
    assert any(not math.isnan(float.fromhex(v)) for v in pid["i_term"])
    assert sum(goldens["lone/toggle1"]["columns"]["stall_cycles"]) > 0
    faulty = goldens["lone/pid/fault_failsafe"]
    assert faulty["events"]
    assert set(faulty["columns"]["failsafe_state"]) > {"nominal"}
    lanes = goldens["lanes/ragged_non_finite"]
    emitted = [lanes[f"lane{slot}"]["emitted"] for slot in range(3)]
    assert emitted[0] == 559 and emitted[1] < emitted[2] < emitted[0]


if __name__ == "__main__":
    # One line per case: a golden is long, and a diff names its case.
    GOLDENS_PATH.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(CASES[name]())}"
            for name in sorted(CASES)
        )
        + "\n}\n",
        encoding="utf-8",
    )
