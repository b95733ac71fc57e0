"""Tests for the fast sample-granularity engine."""

import numpy as np
import pytest

from repro.config import DTMConfig
from repro.dtm.policies import make_policy
from repro.errors import SimulationError
from repro.sim.fast import FastEngine
from repro.workloads.profiles import get_profile


class TestBasicRuns:
    def test_reaches_instruction_target(self):
        result = FastEngine(get_profile("gzip")).run(instructions=500_000)
        assert result.instructions >= 500_000
        assert result.cycles > 0

    def test_unmanaged_ipc_matches_profile(self):
        profile = get_profile("gzip")
        result = FastEngine(profile).run(instructions=500_000)
        assert result.ipc == pytest.approx(profile.mean_ipc, rel=0.1)

    def test_deterministic_per_seed(self):
        a = FastEngine(get_profile("gcc"), seed=5).run(instructions=300_000)
        b = FastEngine(get_profile("gcc"), seed=5).run(instructions=300_000)
        assert a.instructions == b.instructions
        assert a.mean_chip_power == b.mean_chip_power
        assert a.emergency_fraction == b.emergency_fraction

    def test_different_seeds_differ(self):
        a = FastEngine(get_profile("gcc"), seed=1).run(instructions=300_000)
        b = FastEngine(get_profile("gcc"), seed=2).run(instructions=300_000)
        assert a.mean_chip_power != b.mean_chip_power

    def test_rejects_nonpositive_instructions(self):
        with pytest.raises(SimulationError):
            FastEngine(get_profile("gcc")).run(instructions=0)


class TestThermalBehaviour:
    def test_hot_benchmark_heats_up(self):
        result = FastEngine(get_profile("gcc")).run(instructions=2_000_000)
        assert result.max_temperature > 102.0
        assert result.emergency_fraction > 0.2

    def test_cool_benchmark_stays_cool(self):
        result = FastEngine(get_profile("gzip")).run(instructions=2_000_000)
        assert result.max_temperature < 101.0
        assert result.emergency_fraction == 0.0

    def test_block_fractions_bounded(self):
        result = FastEngine(get_profile("gcc")).run(instructions=1_000_000)
        for name, fraction in result.block_emergency_fraction.items():
            assert 0.0 <= fraction <= 1.0, name
            assert fraction <= result.block_stress_fraction[name] + 1e-9

    def test_chip_emergency_at_least_any_block(self):
        result = FastEngine(get_profile("gcc")).run(instructions=1_000_000)
        assert result.emergency_fraction >= max(
            result.block_emergency_fraction.values()
        ) - 1e-9

    def test_warmup_excluded_from_statistics(self):
        cold = FastEngine(get_profile("mesa")).run(instructions=1_000_000)
        warm = FastEngine(get_profile("mesa")).run(
            instructions=1_000_000, warmup_instructions=1_000_000
        )
        # Warm run skips the heating transient, so it sees more stress.
        assert warm.stress_fraction > cold.stress_fraction


class TestDTMIntegration:
    def test_pid_holds_setpoint(self):
        result = FastEngine(
            get_profile("gcc"), policy=make_policy("pid")
        ).run(instructions=2_000_000)
        assert result.emergency_fraction == 0.0
        assert result.max_temperature == pytest.approx(101.8, abs=0.05)

    def test_toggle1_prevents_emergencies_at_conservative_trigger(self):
        result = FastEngine(
            get_profile("gcc"), policy=make_policy("toggle1")
        ).run(instructions=1_000_000)
        assert result.emergency_fraction == 0.0

    def test_dtm_never_exceeds_baseline_ipc(self):
        baseline = FastEngine(get_profile("gcc"), seed=3).run(
            instructions=1_000_000
        )
        for policy_name in ("toggle1", "m", "pid"):
            managed = FastEngine(
                get_profile("gcc"), policy=make_policy(policy_name), seed=3
            ).run(instructions=1_000_000)
            assert managed.relative_ipc(baseline) <= 1.0 + 1e-6

    def test_low_ilp_benchmark_tolerates_mild_toggling(self):
        # The paper: programs without fetch-bandwidth pressure absorb
        # mild toggling for free.
        baseline = FastEngine(get_profile("twolf"), seed=3).run(
            instructions=1_000_000
        )
        managed = FastEngine(
            get_profile("twolf"), policy=make_policy("m"), seed=3
        ).run(instructions=1_000_000)
        assert managed.relative_ipc(baseline) > 0.97

    def test_interrupt_stalls_reduce_throughput(self):
        config = DTMConfig(use_interrupts=True, policy_delay=2000)
        result = FastEngine(
            get_profile("gcc"),
            policy=make_policy("toggle1", dtm_config=config),
            dtm_config=config,
        ).run(instructions=1_000_000)
        assert result.interrupt_stall_cycles > 0


class TestHistoryRecording:
    def test_history_shapes(self):
        engine = FastEngine(get_profile("gcc"), record_history=True)
        result = engine.run(instructions=300_000)
        history = result.history
        assert history is not None
        assert history.block_temps.shape == (history.samples, 7)
        assert history.block_powers.shape == (history.samples, 7)
        assert len(history.duty) == history.samples

    def test_no_history_by_default(self):
        result = FastEngine(get_profile("gcc")).run(instructions=300_000)
        assert result.history is None

    def test_history_consistent_with_summary(self):
        engine = FastEngine(get_profile("gcc"), record_history=True)
        result = engine.run(instructions=300_000)
        history = result.history
        assert float(history.max_temp.max()) == pytest.approx(
            result.max_temperature, abs=1e-9
        )
        assert float(history.chip_power.max()) == pytest.approx(
            result.max_chip_power
        )
