"""Tests for the extension features: setpoint analysis, hierarchical
policy, and sensor-aware runs."""

import pytest

from repro.control import PIDController, dtm_plant, max_safe_setpoint, tune
from repro.dtm.policies import HierarchicalPolicy, make_policy
from repro.errors import ConfigError, ControllerError
from repro.sim.sweep import run_one
from repro.thermal.floorplan import Floorplan
from repro.thermal.sensors import SensorConfig


class TestMaxSafeSetpoint:
    def make_controller(self, family="PID"):
        plant = dtm_plant(Floorplan.default())
        gains = tune(plant, family)
        controller = PIDController(
            gains.kp, gains.ki, gains.kd, sample_time=667e-9,
            output_limits=(0.0, 1.0),
        )
        return controller, plant

    def test_setpoint_below_emergency(self):
        controller, plant = self.make_controller()
        setpoint = max_safe_setpoint(controller, plant, 102.0, 100.0)
        assert 100.0 < setpoint <= 102.0

    def test_small_overshoot_allows_aggressive_setpoint(self):
        # The tuned PID barely overshoots, so the analysis should allow
        # a setpoint within ~0.1 K of the threshold.
        controller, plant = self.make_controller()
        setpoint = max_safe_setpoint(controller, plant, 102.0, 100.0)
        assert setpoint > 101.8

    def test_margin_subtracts(self):
        controller, plant = self.make_controller()
        loose = max_safe_setpoint(controller, plant, 102.0, 100.0)
        controller.reset()
        tight = max_safe_setpoint(controller, plant, 102.0, 100.0, margin=0.5)
        assert tight == pytest.approx(loose - 0.5, abs=1e-9)

    def test_rejects_inverted_levels(self):
        controller, plant = self.make_controller()
        with pytest.raises(ControllerError):
            max_safe_setpoint(controller, plant, 99.0, 100.0)


class TestHierarchicalPolicy:
    def test_primary_runs_when_cool(self):
        policy = HierarchicalPolicy(make_policy("pid"), backup_trigger=101.95)
        assert policy.decide(100.0) == 1.0
        assert not policy.backup_engaged

    def test_backup_overrides_when_hot(self):
        policy = HierarchicalPolicy(make_policy("pid"), backup_trigger=101.95)
        assert policy.decide(101.97) == 0.0
        assert policy.backup_engaged
        assert policy.backup_engagements == 1

    def test_backup_releases_with_hysteresis(self):
        policy = HierarchicalPolicy(
            make_policy("pid"), backup_trigger=101.95, release_margin=0.15
        )
        policy.decide(101.97)
        policy.decide(101.85)  # inside the hysteresis band: still engaged
        assert policy.backup_engaged
        policy.decide(101.70)
        assert not policy.backup_engaged

    def test_backup_duty_is_minimum(self):
        policy = HierarchicalPolicy(
            make_policy("pid"), backup_trigger=101.5, backup_duty=0.25
        )
        assert policy.decide(101.97) <= 0.25

    def test_reset(self):
        policy = HierarchicalPolicy(make_policy("pi"))
        policy.decide(101.97)
        policy.reset()
        assert not policy.backup_engaged
        assert policy.backup_engagements == 0

    def test_name_derives_from_primary(self):
        assert "pid" in HierarchicalPolicy(make_policy("pid")).name

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            HierarchicalPolicy(make_policy("pid"), backup_duty=1.0)
        with pytest.raises(ConfigError):
            HierarchicalPolicy(make_policy("pid"), release_margin=-0.1)

    def test_end_to_end_contains_sensor_error(self):
        # Aggressive setpoint + low-reading sensor: plain PID enters
        # emergency; the hierarchical backup does not.
        sensor = SensorConfig(offset=-0.15)
        plain = run_one(
            "gcc", "pid", instructions=1_500_000, setpoint=101.9,
            sensor=sensor,
        )
        guarded = run_one(
            "gcc", "pid", instructions=1_500_000, setpoint=101.9,
            backup_trigger=101.8, sensor=sensor,
        )
        assert guarded.policy == "hier(pid)"
        assert guarded.extra["backup_engagements"] > 0
        assert plain.emergency_fraction > 0.0
        assert guarded.emergency_fraction < plain.emergency_fraction
        assert guarded.max_temperature < plain.max_temperature


class TestSensorIntegration:
    def test_high_reading_sensor_costs_performance(self):
        baseline = run_one("gcc", "none", instructions=1_000_000)
        ideal = run_one("gcc", "pid", instructions=1_000_000)
        pessimistic = run_one(
            "gcc", "pid", instructions=1_000_000,
            sensor=SensorConfig(offset=0.3),
        )
        assert pessimistic.relative_ipc(baseline) < ideal.relative_ipc(baseline)
        assert pessimistic.emergency_fraction == 0.0

    def test_low_reading_sensor_erodes_safety(self):
        optimistic = run_one(
            "gcc", "pid", instructions=2_000_000,
            sensor=SensorConfig(offset=-0.3),
        )
        assert optimistic.max_temperature > 102.0
