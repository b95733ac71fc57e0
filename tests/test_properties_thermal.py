"""Property-based tests (hypothesis) for the thermal models."""

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.wattch import PowerModel
from repro.sim import batch, lanestep
from repro.sim.fast import FastEngine
from repro.sim.stage import STAGE_ROWS, SampleStage
from repro.thermal.floorplan import Block, Floorplan
from repro.thermal.lumped import LumpedThermalModel
from repro.thermal.rc_network import ThermalRCNetwork
from repro.workloads.profiles import get_profile

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


class _RowLeakage:
    """A leakage model whose power is a fixed row."""

    def __init__(self, row) -> None:
        self.row = np.array(row, dtype=float)

    def power(self, peaks, temperatures):
        return self.row


@dataclass
class LaneStepCase:
    """One compiled-step input: a floorplan's ``(peak, R, C)`` per
    block and its unmonitored peak power, the model's idle fraction
    and heatsink, per lane slot its leakage row, sensed blocks and
    history switch, its start, activity and throughput ratio, the live
    lane count ``k`` and the stage row ``step``."""

    blocks: list
    unmonitored: float
    idle: float
    sink: float
    leakage: list
    monitored: list
    history: list
    starts: list
    activity: list
    ratios: list
    k: int
    step: int


positive_float = st.one_of(
    st.sampled_from((5e-324, 2.2250738585072014e-308, 0.5, 1.0, 1e16, 1e308)),
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
)


@st.composite
def lane_step_cases(draw, blocks):
    """Lanes over ``blocks`` blocks; one lane slot may sit past the k
    live lanes.  Rows mix special floats, modest values whose sums
    round differently in another order, and rows of one special value
    (signed zeros among them)."""
    k = draw(st.sampled_from((1, 2, 8)))
    count = k + draw(st.integers(0, 1))
    row = st.one_of(
        st.lists(special_or_any_float, min_size=blocks, max_size=blocks),
        st.lists(st.floats(-4.0, 4.0), min_size=blocks, max_size=blocks),
        st.sampled_from(SPECIAL_FLOATS).map(lambda value: [value] * blocks),
    )
    lanes = range(count)
    return LaneStepCase(
        blocks=[
            draw(st.tuples(positive_float, positive_float, positive_float))
            for _ in range(blocks)
        ],
        unmonitored=draw(positive_float),
        idle=draw(st.sampled_from((0.0, 0.15, 0.5, 0.999))),
        sink=draw(st.one_of(
            st.sampled_from((0.0, -0.0, 100.0)), special_or_any_float
        )),
        leakage=[draw(st.one_of(st.none(), row)) for _ in lanes],
        monitored=[
            draw(st.one_of(st.none(), st.lists(
                st.integers(0, blocks - 1), min_size=1, unique=True
            )))
            for _ in lanes
        ],
        history=[draw(st.booleans()) for _ in lanes],
        starts=[draw(row) for _ in lanes],
        activity=[draw(row) for _ in lanes],
        ratios=[
            draw(st.one_of(st.just(1.0), special_or_any_float))
            for _ in lanes
        ],
        k=k,
        step=draw(st.sampled_from((0, 1, STAGE_ROWS - 2, STAGE_ROWS - 1))),
    )


def _case_engines(case):
    """One engine per lane slot of ``case``; the first carries the
    model's idle fraction and heatsink, which the lane step reads."""
    floorplan = Floorplan(
        blocks=tuple(
            Block(f"b{i}", 1e-9, peak, resistance=r, capacitance=c)
            for i, (peak, r, c) in enumerate(case.blocks)
        ),
        unmonitored_peak_power=case.unmonitored,
    )
    names = floorplan.names
    engines = [
        FastEngine(
            get_profile("gcc"),
            floorplan=floorplan,
            record_history=history,
            leakage=None if leakage is None else _RowLeakage(leakage),
            monitored_blocks=(
                None if monitored is None
                else tuple(names[i] for i in monitored)
            ),
        )
        for leakage, monitored, history in zip(
            case.leakage, case.monitored, case.history
        )
    ]
    engines[0].power_model = PowerModel(floorplan, idle_fraction=case.idle)
    engines[0].thermal.heatsink_temperature = case.sink
    return engines


def _run_forms(case):
    """Step ``case`` through the stacked pass, then the compiled step.

    Returns, per form, ``(buffers, sensed, finite, stage)``: every stage
    buffer the step writes, its sensed maxima at the step and the next
    (the compiled step's own), and whether it found the step finite.
    """
    step_function = lanestep.load()
    if step_function is None:
        pytest.skip("the compiled lane step cannot be built here")
    engines = _case_engines(case)
    names = engines[0].floorplan.names
    kernel = SimpleNamespace(engines=engines, group=None)
    live = [SimpleNamespace(engine=engine) for engine in engines[:case.k]]
    step = case.step
    runs = []
    for form_class in (batch._Stacked, batch._Compiled):
        stage = SampleStage(engines)
        buffers = [stage.rows, stage.steady, stage.chip]
        if stage.powers is not None:
            buffers.append(stage.powers)
        for buffer in buffers:
            buffer.fill(-7.0)
        stage.rows[step] = case.starts
        activity = np.full((STAGE_ROWS, len(engines), len(names)), -7.0)
        activity[step] = case.activity
        ratios = np.array(case.ratios, dtype=float)
        with mock.patch.object(lanestep, "_kernel", step_function):
            form = form_class(kernel, live, stage, activity, ratios)
            sensed = [form.sense(step, 0)]
            finite = form.advance(step)
            if step + 1 < STAGE_ROWS:
                sensed.append(form.sense(step + 1, 1))
        runs.append((buffers, sensed, finite, stage))
    return runs


class TestCompiledLaneStep:
    """The compiled lane step (``repro.sim.lanestep``) gives the stacked
    numpy pass's bits: every stage row it writes, each lane's
    finiteness and the next step's sensed maxima.  Lanes carry leakage
    rows, history power rows and sensor placement; operands run through
    signed zeros, subnormals, infinities, NaN and huge values (a NaN
    need only be a NaN); block counts cover numpy's left-to-right sums
    (under eight), its eight interleaved sums and its pairwise halves
    (over 128)."""

    @given(data=st.data(), blocks=st.integers(1, 20))
    @settings(max_examples=200, deadline=None)
    def test_compiled_step_equals_the_stacked_pass(self, data, blocks):
        self._check(data.draw(lane_step_cases(blocks)))

    @given(case=lane_step_cases(131))
    @settings(max_examples=30, deadline=None)
    def test_rows_over_128_blocks_sum_in_halves(self, case):
        self._check(case)

    @pytest.mark.parametrize("blocks", [7, 8, 9, 64, 67, 128, 131, 300])
    def test_sums_of_uneven_rows_keep_numpys_order(self, blocks):
        """Rows of unrelated magnitudes, whose sums round differently
        in any other order: numpy's left-to-right, interleaved and
        halved sums on each side of 8 and 128 terms."""
        rng = np.random.default_rng(blocks)
        lanes = range(8)

        def rows():
            return (rng.uniform(0.0, 1.0, (8, blocks)) * 10.0 ** rng.integers(
                -3, 4, (8, blocks)
            )).tolist()

        case = LaneStepCase(
            blocks=[
                (peak, 0.5, 1e-3) for peak in rng.uniform(0.1, 30.0, blocks)
            ],
            unmonitored=7.0, idle=0.15, sink=100.0,
            leakage=[row if lane % 2 else None for lane, row in zip(
                lanes, rows()
            )],
            monitored=[None] * 8, history=[True] * 8, starts=rows(),
            activity=rows(), ratios=rng.uniform(0.2, 1.0, 8).tolist(),
            k=8, step=0,
        )
        self._check(case)

    @pytest.mark.parametrize("blocks", [1, 9])
    def test_negative_zero_powers_sum_to_positive_zero(self, blocks):
        """Powers that underflow to -0.0 sum to numpy's +0.0."""
        tiny = -5e-324
        case = LaneStepCase(
            blocks=[(0.5, 1.0, 1.0)] * blocks, unmonitored=0.5,
            idle=0.0, sink=-0.0,
            leakage=[None], monitored=[None], history=[True],
            starts=[[tiny] * blocks], activity=[[tiny] * blocks],
            ratios=[1.0], k=1, step=0,
        )
        runs = self._check(case)
        assert math.copysign(1.0, runs[1][3].chip[0, 0]) == 1.0

    @pytest.mark.parametrize("monitored", [None, [0, 1, 2, 5, 6, 7, 8]])
    def test_zero_maximum_takes_numpys_sign(self, monitored):
        """End rows whose maximum is +0.0 tied with -0.0: the next
        step's sensed value carries numpy's sign, which a compare in
        row order does not always give."""
        blocks = 9
        tiny = -5e-324
        # Powers underflow to -0.0, and a subnormal capacitance makes
        # the decay 0.0: a -5e-324 start ends on -0.0 and a +0.0 start
        # on +0.0.
        patterns = [
            [tiny if (i + lane) % 3 else 0.0 for i in range(blocks)]
            for lane in range(8)
        ]
        case = LaneStepCase(
            blocks=[(0.5, 1.0, 5e-324)] * blocks, unmonitored=0.5,
            idle=0.0, sink=-0.0, leakage=[None] * 8, monitored=[monitored] * 8,
            history=[True] * 8, starts=patterns,
            activity=[[tiny] * blocks] * 8, ratios=[1.0] * 8, k=8, step=0,
        )
        runs = self._check(case)
        ends = runs[1][3].end[0, :8]
        assert (ends == 0.0).all() and np.signbit(ends).any()

    @staticmethod
    def _check(case):
        with np.errstate(all="ignore"):
            runs = _run_forms(case)
        want, want_sensed, stacked_finite, _ = runs[0]
        got, got_sensed, finite, stage = runs[1]
        for got_buffer, want_buffer in zip(got, want):
            assert_same_floats(got_buffer, want_buffer)
        for got_row, want_row in zip(got_sensed, want_sensed):
            assert_same_floats(got_row, want_row)
        # The stacked pass tests a sum, which may overflow; the compiled
        # step tests every value.
        k, step = case.k, case.step
        exact = bool(
            np.isfinite(stage.chip[step, :k]).all()
            and np.isfinite(stage.end[step, :k]).all()
        )
        assert finite == exact
        assert finite or not stacked_finite
        return runs


class TestAdvanceRow:
    @given(data=st.data(), blocks=st.integers(1, 20))
    @settings(max_examples=150, deadline=None)
    def test_one_row_update_equals_a_row_of_advance_batch(self, data, blocks):
        """Each live lane of the compiled step's plant update gives the
        bits of a one-row ``advance_batch`` from that lane's start row
        and the power row the step staged: signed zeros, subnormals and
        infinities included (a NaN need only be a NaN)."""
        case = data.draw(lane_step_cases(blocks))
        case = replace(case, history=[True] * len(case.history))
        step = case.step
        with np.errstate(all="ignore"):
            engine = _case_engines(case)[0]
            cycles = engine.dtm_config.sampling_interval
            stage = _run_forms(case)[1][3]
            for lane in range(case.k):
                end, steady = engine.thermal.advance_batch(
                    stage.rows[step, lane:lane + 1],
                    stage.powers[step, lane:lane + 1],
                    cycles,
                )
                assert_same_floats(end[0], stage.end[step, lane])
                assert_same_floats(steady[0], stage.steady[step, lane])


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

