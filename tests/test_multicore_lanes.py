"""A multicore chip as a coupled lane group of the sample kernel."""

import ast
import math
from pathlib import Path

import pytest

import repro.multicore
from repro.config import TelemetryConfig
from repro.errors import SimulationError
from repro.multicore import (
    MulticoreEngine,
    MulticoreFloorplan,
    MulticoreThermalModel,
)
from repro.telemetry import Telemetry

MULTICORE_DIR = Path(repro.multicore.__file__).parent

#: The per-sample API a second sample loop would need.
PER_SAMPLE_CALLS = {
    "phase_at",
    "activity_vector",
    "normal",
    "block_powers",
    "unmonitored_power",
    "fraction_above",
    "record_sample",
}


def test_the_kernel_is_the_only_multicore_sample_loop():
    assert "_run" not in vars(MulticoreEngine)
    assert "fraction_above" not in vars(MulticoreThermalModel)
    assert "sample_update" not in vars(MulticoreThermalModel)
    for path in sorted(MULTICORE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        called = {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        }
        assert not called & PER_SAMPLE_CALLS, path.name


def test_chip_rows_come_in_blocks(monkeypatch):
    def per_sample(*args, **kwargs):
        raise AssertionError("a multicore run recorded a single sample")

    monkeypatch.setattr(Telemetry, "record_sample", per_sample)
    telemetry = Telemetry(TelemetryConfig())
    result = MulticoreEngine(
        ("gcc", "gzip"), policy="pid", telemetry=telemetry
    ).run(instructions=100_000)
    samples = result.cycles // 1000
    assert len(telemetry.trace.records()) == samples
    assert telemetry.metrics.snapshot()["engine.samples"]["value"] == samples


def test_non_finite_core_fails_the_whole_run():
    # Decoupled, so the bad block's neighbors stay finite.
    engine = MulticoreEngine(
        ("gcc", "gzip", "art"),
        policy="pid",
        floorplan=MulticoreFloorplan.tile(n_cores=3, coupling_scale=0.0),
    )
    names = engine.floorplan.core.names
    start = engine.thermal.temperatures
    start[1, 2] = math.inf
    engine.thermal.set_temperatures(start)
    with pytest.raises(SimulationError) as info:
        engine.run(instructions=100_000)
    diagnostics = info.value.diagnostics
    assert diagnostics["block"] == f"core1.{names[2]}"
    assert diagnostics["benchmark"] == "gzip"
    assert diagnostics["sample_index"] == 0
    # The chip keeps the state the run failed on.
    assert math.isinf(engine.thermal.temperatures[1, 2])


def test_cores_leave_together():
    result = MulticoreEngine(("art", "gcc"), policy="none").run(
        instructions=300_000
    )
    # The faster core ran on past its budget until the slower one
    # committed its own.
    assert {core.cycles for core in result.cores} == {result.cycles}
    assert all(core.instructions >= 300_000 for core in result.cores)
    slower = min(result.cores, key=lambda core: core.ipc)
    assert slower.instructions - 300_000 < max(
        core.ipc for core in result.cores
    ) * 1000


def test_no_step_no_result():
    engine = MulticoreEngine(("gcc", "gzip"))
    with pytest.raises(SimulationError, match="no samples"):
        engine.run(instructions=100_000, max_cycles=0)
