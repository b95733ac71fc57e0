"""Property-based tests (hypothesis) for the thermal models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ThermalModelError
from repro.thermal.floorplan import Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.thermal.rc_network import ThermalRCNetwork

FLOORPLAN = Floorplan.default()

powers_strategy = st.lists(
    st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
    min_size=7,
    max_size=7,
).map(np.array)

temps_strategy = st.lists(
    st.floats(min_value=80.0, max_value=120.0, allow_nan=False),
    min_size=7,
    max_size=7,
).map(np.array)


class TestLumpedModelProperties:
    @given(powers=powers_strategy, cycles=st.integers(1, 500_000))
    @settings(max_examples=60, deadline=None)
    def test_temperature_bounded_by_start_and_steady(self, powers, cycles):
        """Exponential approach: T stays between start and steady state."""
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        steady = model.steady_state(powers)
        end = model.advance(powers, cycles)
        low = np.minimum(100.0, steady) - 1e-9
        high = np.maximum(100.0, steady) + 1e-9
        assert np.all(end >= low)
        assert np.all(end <= high)

    @given(powers=powers_strategy, cycles=st.integers(1, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_advance_is_composable(self, powers, cycles):
        """advance(a+b) == advance(a); advance(b) under constant power."""
        one = LumpedThermalModel(FLOORPLAN, 100.0)
        two = LumpedThermalModel(FLOORPLAN, 100.0)
        one.advance(powers, 2 * cycles)
        two.advance(powers, cycles)
        two.advance(powers, cycles)
        assert np.allclose(one.temperatures, two.temperatures, atol=1e-9)

    @given(powers=powers_strategy)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_power(self, powers):
        """More power never yields lower temperatures."""
        base = LumpedThermalModel(FLOORPLAN, 100.0)
        hotter = LumpedThermalModel(FLOORPLAN, 100.0)
        base.advance(powers, 100_000)
        hotter.advance(powers + 1.0, 100_000)
        assert np.all(hotter.temperatures >= base.temperatures - 1e-12)

    @given(powers=powers_strategy, start=temps_strategy,
           threshold=st.floats(90.0, 115.0))
    @settings(max_examples=80, deadline=None)
    def test_fraction_above_in_unit_interval(self, powers, start, threshold):
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        model._temps = start.copy()
        steady = model.steady_state(powers)
        frac = model.fraction_above(start, steady, 1000 / 1.5e9, threshold)
        assert np.all(frac >= 0.0)
        assert np.all(frac <= 1.0)

    @given(powers=powers_strategy, start=temps_strategy,
           threshold=st.floats(90.0, 115.0))
    @settings(max_examples=80, deadline=None)
    def test_fraction_above_consistent_with_endpoints(
        self, powers, start, threshold
    ):
        """If both endpoints are above, fraction is 1; both below, 0."""
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        model._temps = start.copy()
        steady = model.steady_state(powers)
        duration = 1000 / 1.5e9  # the interval advance(powers, 1000) covers
        end = model.advance(powers, 1000)
        frac = model.fraction_above(start, steady, duration, threshold)
        both_above = (start > threshold) & (end > threshold)
        both_below = (start <= threshold) & (end <= threshold)
        assert np.all(frac[both_above] == 1.0)
        assert np.all(frac[both_below] == 0.0)


class TestAdvanceBatchWriteThrough:
    @given(
        data=st.data(),
        lanes=st.integers(1, 8),
        cycles=st.integers(1, 100_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_write_through_equals_allocating_form(self, data, lanes, cycles):
        """``advance_batch(..., out=)`` writes the allocating form's
        bits, non-finite values included, for any lane count; the
        powers are a strided view and the outputs rows of a wider
        stage, as the lane kernel passes them."""
        blocks = len(FLOORPLAN.names)

        def matrix(columns):
            values = data.draw(st.lists(
                st.floats(width=64),
                min_size=lanes * columns,
                max_size=lanes * columns,
            ))
            return np.array(values).reshape(lanes, columns)

        start = matrix(blocks)
        powers = matrix(blocks + 1)[:, :blocks]
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        stage = np.full((2, 8, blocks), -1.0)
        out = (stage[0, :lanes], stage[1, :lanes])
        with np.errstate(all="ignore"):
            end, steady = model.advance_batch(start, powers, cycles)
            written = model.advance_batch(start, powers, cycles, out=out)
        assert written[0] is out[0] and written[1] is out[1]
        assert out[0].tobytes() == end.tobytes()
        assert out[1].tobytes() == steady.tobytes()
        assert np.all(stage[:, lanes:] == -1.0)


#: Values a float row can hold that plain arithmetic treats specially.
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16,
    1.0, 1e308, -1e308, math.inf, -math.inf, math.nan, -math.nan,
)

special_or_any_float = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(width=64)
)


def assert_same_floats(got, want):
    """The same bits, except that a NaN need only be a NaN.

    When two NaN operands meet, IEEE 754 leaves open which one the
    result carries, and numpy's vector and tail loops choose
    differently: a row of a multi-lane ``advance_batch`` call can
    differ from the same row's one-lane call in a NaN's sign bit.
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestAdvanceRow:
    @given(
        data=st.data(),
        lanes=st.integers(1, 4),
        cycles=st.integers(1, 100_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_row_update_equals_a_row_of_advance_batch(
        self, data, lanes, cycles
    ):
        """``advance_row`` on Python floats gives the bits of a row of
        the stacked write-through update, one lane (the step it
        replaces) or several: signed zeros, subnormals and infinities
        included."""
        blocks = len(FLOORPLAN.names)
        rows = st.lists(special_or_any_float, min_size=blocks, max_size=blocks)
        start = np.array([data.draw(rows) for _ in range(lanes)])
        powers = np.array([data.draw(rows) for _ in range(lanes)])
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        stage = np.empty((2, 8, blocks))
        with np.errstate(all="ignore"):
            model.advance_batch(
                start, powers, cycles, out=(stage[0, :lanes], stage[1, :lanes])
            )
            for lane in range(lanes):
                row_end, row_steady = model.advance_row(
                    start[lane].tolist(), powers[lane].tolist(), cycles
                )
                assert_same_floats(row_end, stage[0, lane])
                assert_same_floats(row_steady, stage[1, lane])

    def test_one_row_update_is_pure(self):
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        blocks = len(FLOORPLAN.names)
        end, _ = model.advance_row([50.0] * blocks, [1.0] * blocks, 1000)
        assert end != [50.0] * blocks
        # The model's own state does not move.
        assert np.all(model.temperatures == 100.0)

    def test_one_row_update_rejects_bad_rows(self):
        model = LumpedThermalModel(FLOORPLAN, 100.0)
        blocks = len(FLOORPLAN.names)
        with pytest.raises(ThermalModelError):
            model.advance_row([100.0] * blocks, [1.0] * blocks, 0)
        with pytest.raises(ThermalModelError):
            model.advance_row([100.0] * blocks, [1.0] * (blocks - 1), 10)
        with pytest.raises(ThermalModelError):
            model.advance_row([100.0] * (blocks + 1), [1.0] * blocks, 10)


class TestNetworkProperties:
    @given(
        powers=st.lists(st.floats(0.0, 30.0), min_size=3, max_size=3),
        resistances=st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_steady_state_above_reference_for_positive_power(
        self, powers, resistances
    ):
        network = ThermalRCNetwork()
        names = ["a", "b", "c"]
        for name, resistance in zip(names, resistances):
            network.add_node(name, 1e-3, 100.0)
            network.connect_reference(name, 100.0, resistance)
        network.connect("a", "b", 10.0)
        network.connect("b", "c", 10.0)
        steady = network.steady_state(dict(zip(names, powers)))
        for temp in steady.values():
            assert temp >= 100.0 - 1e-9

    @given(power=st.floats(0.0, 50.0), resistance=st.floats(0.05, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_single_node_steady_state_is_ohms_law(self, power, resistance):
        network = ThermalRCNetwork()
        network.add_node("die", 0.5, 27.0)
        network.connect_reference("die", 27.0, resistance)
        steady = network.steady_state({"die": power})
        assert steady["die"] == (
            27.0 + power * resistance
        ) or abs(steady["die"] - (27.0 + power * resistance)) < 1e-9


class TestNetworkSteadyStateAgreesWithSettledRun:
    """steady_state must be the fixed point the Euler run settles to."""

    @given(
        n_nodes=st.integers(2, 4),
        powers=st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4),
        resistances=st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4),
        capacitances=st.lists(
            st.floats(1e-4, 8e-4), min_size=4, max_size=4
        ),
        chain_resistance=st.floats(0.5, 10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_long_run_settles_to_steady_state(
        self, n_nodes, powers, resistances, capacitances, chain_resistance
    ):
        network = ThermalRCNetwork()
        names = [f"n{i}" for i in range(n_nodes)]
        for name, capacitance in zip(names, capacitances):
            network.add_node(name, capacitance, 100.0)
        # Only the head node sees the reference; the rest reach it
        # through the chain, so the solve is genuinely coupled.
        network.connect_reference(names[0], 100.0, resistances[0])
        for left, right, resistance in zip(
            names, names[1:], resistances[1:]
        ):
            network.connect(left, right, chain_resistance * resistance)
        injected = dict(zip(names, powers))
        steady = network.steady_state(injected)
        # Longest possible time constant: every capacitance through
        # the full series resistance to the reference.
        total_r = resistances[0] + chain_resistance * sum(
            resistances[1:n_nodes]
        )
        tau = sum(capacitances[:n_nodes]) * total_r
        network.run(injected, duration=30.0 * tau, dt=tau / 50.0)
        for name in names:
            assert network.temperatures()[name] == pytest.approx(
                steady[name], abs=1e-6
            )


class TestMulticoreZeroCouplingProperties:
    """Decoupled stacked model == N independent single-core models."""

    @given(
        n_cores=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_bitwise_identical_to_independent_models(
        self, n_cores, seed, steps
    ):
        from repro.multicore.floorplan import MulticoreFloorplan
        from repro.multicore.thermal import MulticoreThermalModel

        tiling = MulticoreFloorplan.tile(
            n_cores=n_cores, coupling_scale=0.0
        )
        stacked = MulticoreThermalModel(tiling)
        independents = [
            LumpedThermalModel(tiling.core) for _ in range(n_cores)
        ]
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            powers = rng.uniform(0.0, 12.0, size=stacked.shape)
            cycles = int(rng.integers(1, 200_000))
            stacked.advance(powers, cycles)
            for core, model in enumerate(independents):
                model.advance(powers[core], cycles)
        expected = np.stack(
            [model.temperatures for model in independents]
        )
        assert np.array_equal(stacked.temperatures, expected)

    @given(
        n_cores=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        cycles=st.integers(1, 200_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_lane_step_is_single_core(self, n_cores, seed, cycles):
        # The lane kernel's coupled plant step, at zero coupling: each
        # row is an independent single-core lane.
        from repro.multicore.floorplan import MulticoreFloorplan
        from repro.multicore.thermal import MulticoreThermalModel

        tiling = MulticoreFloorplan.tile(
            n_cores=n_cores, coupling_scale=0.0
        )
        stacked = MulticoreThermalModel(tiling)
        single = LumpedThermalModel(tiling.core)
        rng = np.random.default_rng(seed)
        start = rng.uniform(90.0, 110.0, size=stacked.shape)
        powers = rng.uniform(0.0, 12.0, size=stacked.shape)
        out = (np.empty(stacked.shape), np.empty(stacked.shape))
        end, steady = stacked.advance_lanes(start, powers, cycles, out)
        for core in range(n_cores):
            expected_end, expected_steady = single.advance_from(
                start[core], powers[core], cycles
            )
            assert np.array_equal(end[core], expected_end)
            assert np.array_equal(steady[core], expected_steady)

