"""Experiment drivers run simulations only as WorkSpec sweeps.

The by-value run description (:class:`~repro.sim.parallel.WorkSpec`,
including its ``sensor``, ``backup_trigger`` and
``warmup_instructions`` fields), a static guard that keeps drivers on
the sweep stack, and the parity of driver output across sweep settings.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro.experiments
from repro.dtm.policies import make_policy
from repro.errors import ConfigError
from repro.experiments import (
    ablation_quantization,
    ablation_sensors,
    common,
    extension_hierarchical,
    figure4_traces,
    power_breakdown,
)
from repro.sim.cache import ResultCache
from repro.sim.checkpoint import spec_fingerprint
from repro.sim.codec import decode_value, encode_value
from repro.sim.fast import FastEngine
from repro.sim.parallel import (
    SweepDefaults,
    WorkSpec,
    run_specs,
    sweep_defaults,
)
from repro.sim.sweep import build_engine, run_one
from repro.thermal.sensors import NoisySensor, QuantizedSensor, SensorConfig
from repro.workloads.profiles import BENCHMARKS, get_profile
from tests.test_sim_parallel import assert_results_equal

INSTRUCTIONS = 200_000

#: Drivers still building engines by hand, and why (docs/performance.md):
#: leakage, sensor placement (``monitored_blocks``) and an interleaved
#: profile mix have no WorkSpec form yet.
OFF_STACK = {"extension_leakage", "ablation_placement", "extension_multiprogram"}

#: Names a driver on the sweep stack never imports.
RUNNERS = {"run_one", "build_engine", "FastEngine"}


class TestSensorConfig:
    def test_builds_a_fresh_noisy_sensor_per_call(self):
        config = SensorConfig(noise_sigma=0.05, offset=-0.1, seed=3)
        first, second = config.build(), config.build()
        assert isinstance(first, NoisySensor) and first is not second
        live = NoisySensor(0.05, -0.1, 3)
        reads = [first.read(100.0) for _ in range(5)]
        assert reads == [second.read(100.0) for _ in range(5)]
        assert reads == [live.read(100.0) for _ in range(5)]

    def test_step_builds_a_quantized_sensor(self):
        sensor = SensorConfig(step=0.25).build()
        assert isinstance(sensor, QuantizedSensor)
        assert sensor.read(101.37) == QuantizedSensor(0.25).read(101.37)

    @pytest.mark.parametrize(
        "fields",
        [
            {"noise_sigma": -0.1},
            {"step": 0.0},
            {"step": 0.25, "offset": 0.1},
            {"step": 0.25, "noise_sigma": 0.05},
        ],
    )
    def test_rejects_bad_descriptions(self, fields):
        with pytest.raises(ConfigError):
            SensorConfig(**fields)


class TestWorkSpecFields:
    def test_sensor_seed_changes_the_fingerprint(self):
        specs = [
            WorkSpec("gcc", "pid", sensor=SensorConfig(0.03, seed=seed))
            for seed in (1, 2)
        ]
        assert spec_fingerprint(specs[0]) != spec_fingerprint(specs[1])

    def test_new_fields_round_trip_through_the_codec(self):
        spec = WorkSpec(
            "gcc",
            "pid",
            sensor=SensorConfig(0.03, -0.1, 2),
            backup_trigger=101.85,
            warmup_instructions=50_000,
        )
        assert decode_value(encode_value(spec)) == spec

    def test_sensor_matches_a_live_sensor_engine(self):
        live = FastEngine(
            get_profile("gcc"),
            policy=make_policy("pid"),
            sensor=NoisySensor(0.05, -0.1, 4),
        ).run(instructions=INSTRUCTIONS)
        described = run_one(
            "gcc", "pid", instructions=INSTRUCTIONS,
            sensor=SensorConfig(0.05, -0.1, 4),
        )
        assert_results_equal(described, live)

    def test_backup_trigger_wraps_and_counts_engagements(self):
        result = run_one(
            "gcc", "pid", instructions=1_000_000, setpoint=101.9,
            backup_trigger=101.8, sensor=SensorConfig(offset=-0.15),
        )
        assert result.policy == "hier(pid)"
        assert result.extra["backup_engagements"] > 0
        plain = run_one("gcc", "pid", instructions=INSTRUCTIONS)
        assert "backup_engagements" not in plain.extra

    def test_warmup_matches_the_engine_argument(self):
        spec = WorkSpec(
            "gzip", "pid", instructions=INSTRUCTIONS,
            warmup_instructions=100_000,
        )
        direct = build_engine(spec).run(
            instructions=INSTRUCTIONS, warmup_instructions=100_000
        )
        [swept] = run_specs([spec], jobs=1, batch=1, cache=False)
        [laned] = run_specs(
            [spec, dataclasses.replace(spec, seed=1)],
            jobs=1, batch=2, cache=False,
        )[:1]
        assert_results_equal(direct, swept)
        assert_results_equal(direct, laned)

    def test_multicore_spec_rejects_single_core_fields(self):
        spec = WorkSpec(
            "gcc", "pid", instructions=INSTRUCTIONS,
            core_benchmarks=("gcc", "gzip"), backup_trigger=101.8,
        )
        with pytest.raises(ConfigError):
            run_specs([spec], jobs=1, cache=False)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_single_core_spec_rejects_coordinator(self, batch):
        spec = WorkSpec(
            "gcc", "pid", instructions=INSTRUCTIONS,
            coordinator="no-such-strategy",
        )
        plain = WorkSpec("gzip", "pid", instructions=INSTRUCTIONS)
        with pytest.raises(ConfigError, match="coordinator"):
            run_specs([plain, spec], jobs=1, batch=batch, cache=False)


def test_hierarchical_rows_do_not_depend_on_run_order():
    # Each run builds its own sensor, so a row equals its spec run
    # alone -- in any order, and whatever ran before it.
    specs = [
        dataclasses.replace(spec, instructions=600_000)
        for spec in extension_hierarchical.specs(("gcc",), quick=True)
    ]
    swept = run_specs(specs, jobs=1, batch=1, cache=False)
    for spec, result in reversed(list(zip(specs, swept))):
        [alone] = run_specs([spec], jobs=1, batch=1, cache=False)
        assert_results_equal(alone, result)


def _imported_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.rsplit(".", 1)[-1] for alias in node.names
            )
    return names


def test_drivers_run_simulations_only_through_the_sweep_stack():
    package = Path(repro.experiments.__file__).parent
    offenders = {
        path.stem: sorted(_imported_names(path) & RUNNERS)
        for path in sorted(package.glob("*.py"))
        if _imported_names(path) & RUNNERS
    }
    assert set(offenders) <= OFF_STACK, offenders
    # The exceptions stay honest: each still needs its hand-built engine.
    assert set(offenders) == OFF_STACK, offenders


#: A fast subset of the drivers moved onto the sweep stack.
PARITY_DRIVERS = (
    (ablation_quantization, {"quick": True}),
    (ablation_sensors, {"quick": True}),
    (extension_hierarchical, {"quick": True}),
    (figure4_traces, {}),
    (power_breakdown, {"quick": True}),
)


def _texts(defaults: SweepDefaults) -> list[str]:
    with sweep_defaults(defaults):
        return [
            module.run(**kwargs).text for module, kwargs in PARITY_DRIVERS
        ]


def test_driver_text_is_identical_across_sweep_settings(tmp_path):
    cache_dir = str(tmp_path / "cache")
    reference = _texts(SweepDefaults(jobs=1, batch=1, cache=False))
    assert _texts(SweepDefaults(jobs=2, batch=8, cache=False)) == reference
    assert _texts(SweepDefaults(cache=cache_dir)) == reference
    misses = ResultCache(cache_dir).stats()["misses"]
    assert misses > 0
    assert _texts(SweepDefaults(cache=cache_dir)) == reference
    # The warm pass replayed every spec: no new misses, so nothing ran.
    assert ResultCache(cache_dir).stats()["misses"] == misses


def test_characterization_runs_once_for_tables_4_to_10(monkeypatch):
    """Tables 4-6 and 8-10 (results with history) and Table 7 (traces)
    share one run per benchmark: the matrix is not simulated twice."""
    ran = []

    def counted(specs, *args, **kwargs):
        ran.extend(spec.benchmark for spec in specs)
        return run_specs(specs, *args, **kwargs)

    monkeypatch.setattr(common, "run_specs", counted)
    monkeypatch.setattr(common, "QUICK_INSTRUCTIONS", 20_000)
    monkeypatch.setattr(common, "WARMUP_INSTRUCTIONS", 10_000)
    common.suite_runs.cache_clear()
    try:
        results = common.characterize_suite(quick=True)
        traced, traces = common.characterize_suite_traced(quick=True)
    finally:
        common.suite_runs.cache_clear()
    assert sorted(ran) == sorted(BENCHMARKS)
    assert traced is results
    for name in BENCHMARKS:
        assert results[name].history is not None
        assert traces[name]
