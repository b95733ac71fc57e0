"""Tests for the DTM manager (the Figure 1 loop orchestration)."""

import pytest

from repro.config import DTMConfig
from repro.dtm.manager import DTMManager
from repro.dtm.policies import make_policy
from repro.thermal.sensors import NoisySensor


class TestSamplingCadence:
    def test_ct_policy_checked_every_sample(self):
        manager = DTMManager(make_policy("pid"))
        duties = [manager.on_sample(t)[0] for t in (100.0, 103.0, 103.0)]
        # Reacts on the very next sample after the temperature jump.
        assert duties[0] == 1.0
        assert duties[1] < 1.0

    def test_nonct_policy_checked_at_policy_delay(self):
        config = DTMConfig(policy_delay=5000, sampling_interval=1000)
        manager = DTMManager(make_policy("toggle1", dtm_config=config), config)
        # First sample is a check (index 0); the next four are not.
        assert manager.on_sample(100.0)[0] == 1.0
        for _ in range(4):
            duty, _ = manager.on_sample(103.0)
            assert duty == 1.0  # hot, but no check until the boundary
        duty, _ = manager.on_sample(103.0)
        assert duty == 0.0  # fifth sample: check fires, policy engages

    def test_duty_quantized_to_actuator_grid(self):
        config = DTMConfig(toggle_levels=8)
        manager = DTMManager(make_policy("m", dtm_config=config), config)
        duty, _ = manager.on_sample(100.9)
        assert duty in {k / 7 for k in range(8)}


class TestInterruptAccounting:
    def test_interrupt_cost_on_transitions(self):
        config = DTMConfig(
            use_interrupts=True, policy_delay=1000, sampling_interval=1000
        )
        manager = DTMManager(make_policy("toggle1", dtm_config=config), config)
        _, stall_cold = manager.on_sample(100.0)
        _, stall_engage = manager.on_sample(103.0)
        _, stall_steady = manager.on_sample(103.0)
        assert stall_cold == 0
        assert stall_engage == config.interrupt_cost
        assert stall_steady == 0

    def test_only_crossing_full_duty_interrupts(self):
        """Moving between engaged duty levels is no transition: only a
        drive across duty 1.0, either way, costs an interrupt."""

        class Scripted:
            name = "scripted"
            check_interval_samples = 1
            is_interrupt_driven = True
            outputs = iter([1.0, 0.5, 0.25, 0.25, 1.0, 0.0])

            def decide(self, measurement):
                return next(self.outputs)

        config = DTMConfig(use_interrupts=True)
        manager = DTMManager(Scripted(), config)
        stalls = [manager.on_sample(100.0)[1] for _ in range(6)]
        cost = config.interrupt_cost
        assert stalls == [0, cost, 0, 0, cost, cost]
        assert manager.interrupts.events == 3

    def test_ct_policies_never_pay_interrupts(self):
        config = DTMConfig(use_interrupts=True)
        manager = DTMManager(make_policy("pid", dtm_config=config), config)
        manager.on_sample(100.0)
        _, stall = manager.on_sample(103.0)
        assert stall == 0


class TestSensorsAndState:
    def test_sensor_is_applied(self):
        # A sensor with a large positive offset makes a cool chip look
        # hot, so the policy should engage.
        sensor = NoisySensor(noise_sigma=0.0, offset=5.0)
        manager = DTMManager(make_policy("pid"), sensor=sensor)
        duty, _ = manager.on_sample(100.0)  # reads as 105
        assert duty < 1.0

    def test_engaged_fraction(self):
        manager = DTMManager(make_policy("pid"))
        manager.on_sample(100.0)
        manager.on_sample(103.0)
        manager.on_sample(103.0)
        assert manager.engaged_fraction == pytest.approx(2 / 3)

    def test_reset_restores_initial_state(self):
        manager = DTMManager(make_policy("pi"))
        manager.on_sample(103.0)
        manager.reset()
        assert manager.duty == 1.0
        assert manager.samples == 0
        assert manager.engaged_fraction == 0.0
