"""Tests for the vectorized N-core thermal model."""

import numpy as np
import pytest

from repro.errors import ThermalModelError
from repro.multicore.floorplan import MulticoreFloorplan
from repro.multicore.thermal import MulticoreThermalModel
from repro.thermal.lumped import LumpedThermalModel


def make_model(n_cores=4, coupling_scale=1.0, **kwargs):
    tiling = MulticoreFloorplan.tile(
        n_cores=n_cores, coupling_scale=coupling_scale
    )
    return MulticoreThermalModel(tiling, **kwargs)


class TestBasics:
    def test_shape_and_start(self):
        model = make_model(4)
        assert model.shape == (4, 7)
        assert np.all(model.temperatures == 100.0)

    def test_initial_temperature_override(self):
        model = make_model(2, initial_temperature=60.0)
        assert np.all(model.temperatures == 60.0)
        model.advance(np.ones(model.shape), 1000)
        model.reset()
        assert np.all(model.temperatures == 60.0)

    def test_wrong_power_shape_rejected(self):
        model = make_model(4)
        with pytest.raises(ThermalModelError):
            model.advance(np.zeros((3, 7)), 1000)
        with pytest.raises(ThermalModelError):
            model.steady_state(np.zeros(7))

    def test_non_positive_cycles_rejected(self):
        model = make_model(2)
        with pytest.raises(ThermalModelError):
            model.advance(np.zeros(model.shape), 0)

    def test_unstable_cycle_time_rejected(self):
        model = make_model(2, cycle_time=1.0)
        with pytest.raises(ThermalModelError, match="unstable"):
            model.step_cycle(np.zeros(model.shape))

    def test_hottest_core_tracking(self):
        model = make_model(4)
        powers = np.zeros(model.shape)
        powers[2] = 8.0
        model.advance(powers, 200_000)
        assert model.hottest_core == 2
        assert model.core_max_temperatures.argmax() == 2
        assert model.max_temperature == pytest.approx(
            model.core_temperatures(2).max()
        )


class TestZeroCoupling:
    def test_bit_identical_to_independent_models(self):
        model = make_model(4, coupling_scale=0.0)
        singles = [
            LumpedThermalModel(model.floorplan.core) for _ in range(4)
        ]
        rng = np.random.default_rng(7)
        for _ in range(10):
            powers = rng.uniform(0.0, 10.0, size=model.shape)
            model.advance(powers, 5_000)
            for core, single in enumerate(singles):
                single.advance(powers[core], 5_000)
        expected = np.stack([s.temperatures for s in singles])
        assert np.array_equal(model.temperatures, expected)

    def test_steady_state_is_single_core_formula(self):
        model = make_model(3, coupling_scale=0.0)
        powers = np.full(model.shape, 4.0)
        steady = model.steady_state(powers)
        resistances = np.array(
            [b.resistance for b in model.floorplan.core.blocks]
        )
        assert np.array_equal(steady, 100.0 + powers * resistances)

    def test_no_lateral_flow(self):
        model = make_model(4, coupling_scale=0.0)
        powers = np.zeros(model.shape)
        powers[0] = 10.0
        model.advance(powers, 500_000)
        assert np.all(model.lateral_core_powers() == 0.0)
        # The unpowered cores never move.
        assert np.all(model.temperatures[1:] == 100.0)


class TestLateralCoupling:
    def test_heat_flows_hot_to_cold(self):
        model = make_model(2)
        powers = np.zeros(model.shape)
        powers[0] = 10.0
        # The lateral term is quasi-static (frozen per interval), so
        # step in sampling-interval-sized chunks as the engine does.
        for _ in range(500):
            model.advance(powers, 1000)
        lateral = model.lateral_core_powers()
        assert lateral[0] < 0.0  # hot core loses heat sideways
        assert lateral[1] > 0.0  # cold core gains it
        assert lateral.sum() == pytest.approx(0.0, abs=1e-12)
        # The unpowered neighbor warms above the heatsink.
        assert model.core_max_temperatures[1] > 100.0

    def test_coupled_hot_core_runs_cooler(self):
        decoupled = make_model(2, coupling_scale=0.0)
        coupled = make_model(2, coupling_scale=1.0)
        powers = np.zeros((2, 7))
        powers[0] = 10.0
        for _ in range(1000):
            decoupled.advance(powers, 1000)
            coupled.advance(powers, 1000)
        assert (
            coupled.core_max_temperatures[0]
            < decoupled.core_max_temperatures[0]
        )

    def test_core_mean_is_capacitance_weighted(self):
        model = make_model(2)
        rng = np.random.default_rng(3)
        model._temps = rng.uniform(100.0, 110.0, size=model.shape)
        shares = model.floorplan.capacitance_shares()
        expected = model._temps @ shares
        assert np.allclose(model.core_mean_temperatures(), expected)

    def test_advance_lanes_matches_advance(self):
        model = make_model(4)
        rng = np.random.default_rng(5)
        model.advance(rng.uniform(0.0, 12.0, size=model.shape), 200_000)
        powers = rng.uniform(0.0, 12.0, size=model.shape)
        start = model.temperatures
        out = (np.empty(model.shape), np.empty(model.shape))
        end, steady = model.advance_lanes(start, powers, 1000, out)
        assert end is out[0] and steady is out[1]
        # The lane step leaves the model's own state alone ...
        assert np.array_equal(model.temperatures, start)
        # ... and takes advance()'s coupled update, bit for bit.
        assert np.array_equal(end, model.advance(powers, 1000))
        low = np.minimum(start, steady) - 1e-9
        high = np.maximum(start, steady) + 1e-9
        assert np.all(end >= low) and np.all(end <= high)


class TestEquilibrium:
    def test_matches_expanded_rc_network(self):
        tiling = MulticoreFloorplan.tile(n_cores=4, coupling_scale=1.0)
        model = MulticoreThermalModel(tiling)
        rng = np.random.default_rng(0)
        powers = rng.uniform(0.0, 8.0, size=model.shape)
        equilibrium = model.equilibrium(powers)
        network = tiling.to_rc_network(100.0)
        injected = {
            tiling.node_name(core, block.name): powers[core, index]
            for core in range(tiling.n_cores)
            for index, block in enumerate(tiling.core.blocks)
        }
        steady = network.steady_state(injected)
        expanded = np.array(
            [
                [
                    steady[tiling.node_name(core, block.name)]
                    for block in tiling.core.blocks
                ]
                for core in range(tiling.n_cores)
            ]
        )
        assert np.abs(equilibrium - expanded).max() < 0.02

    def test_zero_coupling_equilibrium_is_steady_state(self):
        model = make_model(3, coupling_scale=0.0)
        powers = np.full(model.shape, 6.0)
        assert np.allclose(
            model.equilibrium(powers), model.steady_state(powers)
        )

    def test_long_advance_converges_to_equilibrium(self):
        model = make_model(2)
        powers = np.zeros(model.shape)
        powers[0] = 8.0
        target = model.equilibrium(powers)
        for _ in range(2000):
            model.advance(powers, 100_000)
        assert np.abs(model.temperatures - target).max() < 0.01
