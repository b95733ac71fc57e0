"""Vectorized N-core thermal-RC model: one stacked numpy update.

State is one ``(n_cores, n_blocks)`` array.  Each block keeps the
paper's vertical path to the isothermal heatsink (exact exponential
update for constant power, as in
:class:`~repro.thermal.lumped.LumpedThermalModel`); cores additionally
exchange heat laterally through the coupling resistances of the
:class:`~repro.multicore.floorplan.MulticoreFloorplan`.

The lateral exchange is applied **quasi-statically** per interval: the
core temperature seen by neighbors is the capacitance-weighted block
mean, the net lateral power into each core is computed once at the
interval start, distributed to blocks by capacitance share, and folded
into the per-block power before the exact vertical update.  This is
accurate because the coupling conductance is weak (the same argument
the paper uses to drop intra-core lateral paths): per 1000-cycle
sample, core-to-core temperature differences move by well under 1 %.

**Zero-coupling guarantee**: with no couplings the lateral term is
skipped entirely and the stacked update performs, row by row, exactly
the same elementwise float64 operations as
:meth:`LumpedThermalModel._advance` -- so the N-core model is
*bit-identical* to N independent single-core models (asserted by unit
and hypothesis tests) while running the update as one numpy call
(>= 3x faster than the N-model loop at N=16, asserted by a benchmark).

A multicore run does not step this model's own state: the sample
kernel owns the chip's stacked state and calls :meth:`advance_lanes`,
the same update on the rows it passes, then hands the end state back
(:meth:`set_temperatures`).  Threshold accounting is the single-core
kernel's, :meth:`~repro.thermal.lumped.LumpedThermalModel.
fractions_above`, in the kernel's sample stage.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import ThermalModelError
from repro.multicore.floorplan import MulticoreFloorplan
from repro.thermal.lumped import LumpedThermalModel


class MulticoreThermalModel:
    """Stacked per-core block temperatures over a shared heatsink."""

    def __init__(
        self,
        floorplan: MulticoreFloorplan,
        heatsink_temperature: float = 100.0,
        initial_temperature: float | None = None,
        cycle_time: float = units.CYCLE_TIME,
    ) -> None:
        if cycle_time <= 0:
            raise ThermalModelError("cycle_time must be positive")
        self.floorplan = floorplan
        self.heatsink_temperature = float(heatsink_temperature)
        self.cycle_time = float(cycle_time)
        core = floorplan.core
        self._resistance = np.array(
            [block.resistance for block in core.blocks], dtype=float
        )
        self._capacitance = np.array(
            [block.capacitance for block in core.blocks], dtype=float
        )
        self._tau = self._resistance * self._capacitance
        #: (n_cores, n_cores) lateral conductance; zero => decoupled.
        self._coupling = floorplan.coupling_conductance_matrix()
        self._coupling_total = self._coupling.sum(axis=1)
        self._has_coupling = bool(np.any(self._coupling))
        self._share = floorplan.capacitance_shares()
        # Forward-Euler stability: per-block total conductance is the
        # vertical path plus this block's share of the core's lateral
        # conductance (worst core).
        lateral_block = (
            float(self._coupling_total.max()) * self._share
            if self._has_coupling
            else np.zeros_like(self._share)
        )
        total_conductance = 1.0 / self._resistance + lateral_block
        self._euler_limit = 2.0 * float(
            (self._capacitance / total_conductance).min()
        )
        start = (
            self.heatsink_temperature
            if initial_temperature is None
            else float(initial_temperature)
        )
        self._initial = start
        self._temps = np.full(
            (floorplan.n_cores, floorplan.n_blocks), start, dtype=float
        )
        #: One core's single-core model: the exact update of
        #: :meth:`advance_lanes`.
        self._core_model = LumpedThermalModel(
            core, self.heatsink_temperature, cycle_time=self.cycle_time
        )

    # -- state ---------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        """Number of cores."""
        return self.floorplan.n_cores

    @property
    def shape(self) -> tuple[int, int]:
        """State shape, ``(n_cores, n_blocks)``."""
        return self._temps.shape

    @property
    def time_constants(self) -> np.ndarray:
        """Per-block vertical RC time constants [s] (read-only copy)."""
        return self._tau.copy()

    @property
    def temperatures(self) -> np.ndarray:
        """Current temperatures [degC], shape ``(n_cores, n_blocks)`` (copy)."""
        return self._temps.copy()

    @property
    def core_max_temperatures(self) -> np.ndarray:
        """Hottest block of each core [degC], shape ``(n_cores,)``."""
        return self._temps.max(axis=1)

    @property
    def max_temperature(self) -> float:
        """Hottest block on the whole die [degC]."""
        return float(self._temps.max())

    @property
    def hottest_core(self) -> int:
        """Index of the core holding the hottest block."""
        return int(self._temps.max(axis=1).argmax())

    def core_temperatures(self, core_index: int) -> np.ndarray:
        """One core's block temperatures [degC] (copy)."""
        self.floorplan._check_core(core_index)
        return self._temps[core_index].copy()

    def reset(self) -> None:
        """Return every block of every core to the initial temperature."""
        self._temps.fill(self._initial)

    def set_temperatures(self, temperatures: np.ndarray) -> None:
        """Rebind the state to a copy of ``temperatures`` [degC].

        A multicore run hands its end state back here, so a second run
        starts where the first ended.
        """
        temperatures = np.array(temperatures, dtype=float)
        if temperatures.shape != self._temps.shape:
            raise ThermalModelError(
                f"expected temperatures of shape {self._temps.shape}, "
                f"got {temperatures.shape}"
            )
        self._temps = temperatures

    # -- lateral exchange ----------------------------------------------------
    def core_mean_temperatures(self) -> np.ndarray:
        """Capacitance-weighted core temperatures [degC], ``(n_cores,)``."""
        return self._temps @ self._share

    def lateral_core_powers(self) -> np.ndarray:
        """Net lateral heat into each core [W] at the current state."""
        return self._lateral(self._temps)

    def _lateral(self, temps: np.ndarray) -> np.ndarray:
        """Net lateral heat into each core [W] at state ``temps``."""
        core_temps = temps @ self._share
        return self._coupling @ core_temps - self._coupling_total * core_temps

    def _effective_powers(self, powers, temps: np.ndarray) -> np.ndarray:
        """Validate shape; fold the quasi-static lateral term at ``temps`` in.

        Returns ``powers`` itself (not a copy) when there is no
        coupling, so the zero-coupling arithmetic is untouched.
        """
        powers = np.asarray(powers, dtype=float)
        if powers.shape != self._temps.shape:
            raise ThermalModelError(
                f"expected powers of shape {self._temps.shape}, "
                f"got {powers.shape}"
            )
        if not self._has_coupling:
            return powers
        return powers + np.outer(self._lateral(temps), self._share)

    # -- updates -------------------------------------------------------------
    def advance_lanes(
        self, start: np.ndarray, powers: np.ndarray, cycles: int, out=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact update of the state ``start``: ``(end, steady)``.

        The lane kernel's coupled plant step (:mod:`repro.sim.batch`),
        which owns the chip's state: this model's own is not touched.
        The quasi-static lateral term at ``start`` is folded into the
        ``(n_cores, n_blocks)`` powers, then the rows take the
        single-core exact update,
        :meth:`~repro.thermal.lumped.LumpedThermalModel.advance_batch`
        with its cached decay (into ``out``, if given).  At zero
        coupling each row is bit-identical to an independent lane.
        """
        powers = self._effective_powers(powers, start)
        return self._core_model.advance_batch(start, powers, cycles, out=out)

    def step_cycle(self, powers: np.ndarray) -> np.ndarray:
        """One clock cycle of forward Euler across all cores.

        Rejected outright when ``cycle_time`` is at or beyond the
        stability bound ``2 * min(C / G_total)`` (vertical plus lateral
        conductance), mirroring the single-core guard.
        """
        if self.cycle_time >= self._euler_limit:
            raise ThermalModelError(
                f"cycle_time {self.cycle_time:g} s is forward-Euler "
                f"unstable: it must stay below 2*min(C/G) = "
                f"{self._euler_limit:g} s; use advance() for long "
                f"constant-power intervals"
            )
        powers = self._effective_powers(powers, self._temps)
        leak = (self._temps - self.heatsink_temperature) / self._resistance
        self._temps = self._temps + (self.cycle_time / self._capacitance) * (
            powers - leak
        )
        return self._temps.copy()

    def advance(self, powers: np.ndarray, cycles: int) -> np.ndarray:
        """Exact vertical update for ``cycles`` cycles of constant power.

        The lateral term is held at its interval-start value (quasi-
        static); the vertical relaxation toward the effective steady
        state uses the closed-form exponential, one stacked numpy
        expression for all cores.
        """
        self._temps, _ = self.advance_lanes(self._temps, powers, cycles)
        return self._temps.copy()

    # -- analysis helpers ----------------------------------------------------
    def steady_state(self, powers: np.ndarray) -> np.ndarray:
        """Quasi-static steady target for the *current* lateral flows.

        This is the target the next constant-power interval relaxes
        toward, not the true coupled equilibrium -- see
        :meth:`equilibrium` for that.
        At zero coupling the two coincide with the single-core formula
        ``T_sink + P * R`` exactly.
        """
        powers = self._effective_powers(powers, self._temps)
        return self.heatsink_temperature + powers * self._resistance

    def equilibrium(self, powers: np.ndarray) -> np.ndarray:
        """Exact coupled equilibrium temperatures under constant power.

        Solves the linear balance (vertical leak + capacitance-share
        lateral exchange = injected power) over all ``n_cores *
        n_blocks`` unknowns.  Cross-checked against the expanded
        :meth:`~repro.multicore.floorplan.MulticoreFloorplan.to_rc_network`
        steady state by tests.
        """
        powers = np.asarray(powers, dtype=float)
        if powers.shape != self._temps.shape:
            raise ThermalModelError(
                f"expected powers of shape {self._temps.shape}, "
                f"got {powers.shape}"
            )
        # Block (c, b) leaks G_b = 1/R_b to the sink, and takes share_b of
        # the flow between core c and each neighbor, driven by their
        # capacitance-weighted mean temperatures.
        vertical = 1.0 / self._resistance
        exchange = self._coupling - np.diag(self._coupling_total)
        system = np.kron(
            exchange, np.outer(self._share, self._share)
        ) - np.diag(np.tile(vertical, self.n_cores))
        rhs = -(powers + vertical * self.heatsink_temperature)
        solution = np.linalg.solve(system, rhs.ravel())
        return solution.reshape(self._temps.shape)
