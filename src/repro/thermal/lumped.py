"""The simplified per-block thermal model of Figure 3C (paper Eq. 5).

Each monitored block couples to an isothermal heatsink through its
normal resistance ``R_i`` and stores heat in its capacitance ``C_i``:

    T_i[n+1] = T_i[n] + dt/C_i * ( P_i[n] - (T_i[n] - T_sink) / R_i )

This is exactly the difference equation the paper evaluates every clock
cycle (Equation 5, dt = 0.667 ns).  The model offers two updates:

* :meth:`LumpedThermalModel.step_cycle` -- the paper's forward-Euler
  per-cycle update, vectorized over blocks (the detailed simulator's);
* the exact exponential solution for a constant-power interval,
  ``T(t+h) = T_ss + (T(t) - T_ss) * exp(-h / RC)`` with
  ``T_ss = T_sink + P * R``, which jumps a whole controller sampling
  interval at once with no integration error.  It comes in three
  shapes over the same expression: :meth:`~LumpedThermalModel.advance`
  and :meth:`~LumpedThermalModel.advance_from` step the model's own
  state; :meth:`~LumpedThermalModel.advance_batch` is pure and steps
  stacked lanes, optionally in place.  The sample kernel
  (:mod:`repro.sim.batch`) owns its lanes' state: its numpy pass calls
  ``advance_batch``, and its compiled step (:mod:`repro.sim.lanestep`)
  evaluates the same expression in C on the model's resistances and
  its cached decay (:meth:`~LumpedThermalModel._decay`), so numpy's
  ``exp`` makes every decay factor either form uses.

The two updates agree to within Euler truncation error; a test asserts
this.  The model records no profiler spans: the kernel opens the
``thermal.advance`` span around its plant call.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import ThermalModelError
from repro.thermal.floorplan import Floorplan


#: Process-wide exponential-decay cache shared by every model instance,
#: keyed by (tau bytes, cycle_time, cycles).  A sweep builds one model
#: per run but every run over the same floorplan/timestep needs the
#: exact same ``exp(-h / tau)`` arrays; sharing them across instances
#: saves the per-run ``np.exp`` warm-up entirely.  Values are identical
#: for identical keys (``tau.tobytes()`` captures the exact float bits
#: the expression consumes), so sharing cannot perturb bit-identity.
_SHARED_DECAY: dict[tuple, np.ndarray] = {}

#: Safety bound on distinct (model, interval) decay entries; property
#: sweeps over random floorplans would otherwise grow the shared dict
#: without limit.  Cleared wholesale when full -- entries are pure
#: recomputable values, so eviction is only a cost, never a correctness
#: concern.
_SHARED_DECAY_MAX = 1024


class LumpedThermalModel:
    """Per-block temperatures over an isothermal heatsink."""

    def __init__(
        self,
        floorplan: Floorplan,
        heatsink_temperature: float = 100.0,
        initial_temperature: float | None = None,
        cycle_time: float = units.CYCLE_TIME,
    ) -> None:
        if cycle_time <= 0:
            raise ThermalModelError("cycle_time must be positive")
        self.floorplan = floorplan
        self.heatsink_temperature = float(heatsink_temperature)
        self.cycle_time = float(cycle_time)
        self._resistance = np.array(
            [block.resistance for block in floorplan.blocks], dtype=float
        )
        self._capacitance = np.array(
            [block.capacitance for block in floorplan.blocks], dtype=float
        )
        self._tau = self._resistance * self._capacitance
        #: Forward Euler diverges at dt >= 2*min(tau); precomputed for
        #: the per-cycle hot path.
        self._euler_limit = 2.0 * float(self._tau.min())
        start = (
            self.heatsink_temperature
            if initial_temperature is None
            else float(initial_temperature)
        )
        self._initial = start
        self._temps = np.full(len(floorplan.blocks), start, dtype=float)
        #: Cached read-only view of ``_temps`` (see ``temperatures_view``).
        self._temps_view: np.ndarray | None = None
        #: Exponential decay factors keyed by interval length in cycles
        #: (the fast engine advances by one fixed sampling interval, so
        #: this cache turns a per-sample ``np.exp`` into a dict hit).
        #: First level over the process-wide ``_SHARED_DECAY`` store,
        #: which additionally shares the arrays *across* model
        #: instances of the same (tau, cycle_time) parameters.
        self._decay_cache: dict[int, np.ndarray] = {}
        self._decay_key = (self._tau.tobytes(), self.cycle_time)
        #: Constants tiled per (lane count, interval) for the stacked
        #: update's write-through form (see ``_lane_constants``).
        self._lane_tiles: dict[tuple[int, int], tuple] = {}

    # -- state ---------------------------------------------------------------
    @property
    def time_constants(self) -> np.ndarray:
        """Per-block RC time constants [s] (read-only copy)."""
        return self._tau.copy()

    @property
    def names(self) -> tuple[str, ...]:
        """Block names, in floorplan order."""
        return self.floorplan.names

    @property
    def temperatures(self) -> np.ndarray:
        """Current block temperatures [degC] (read-only copy)."""
        return self._temps.copy()

    @property
    def temperatures_view(self) -> np.ndarray:
        """Current block temperatures as a cached **read-only view**.

        Hot paths (the fast engine reads the state every sample) use
        this instead of :attr:`temperatures` to skip the per-read
        allocation; external mutation is still impossible because the
        view's ``writeable`` flag is cleared.  The view tracks state
        updates: :meth:`advance` rebinds the underlying array (so
        callers holding the *previous* view keep a stable snapshot of
        the pre-advance temperatures), and this property re-wraps the
        current array on demand.
        """
        view = self._temps_view
        if view is None or view.base is not self._temps:
            view = self._temps.view()
            view.flags.writeable = False
            self._temps_view = view
        return view

    def temperature(self, name: str) -> float:
        """Current temperature of one named block [degC]."""
        return float(self._temps[self.floorplan.index(name)])

    @property
    def max_temperature(self) -> float:
        """Temperature of the hottest monitored block [degC]."""
        return float(self._temps.max())

    @property
    def hottest_block(self) -> str:
        """Name of the hottest monitored block."""
        return self.names[int(self._temps.argmax())]

    def reset(self) -> None:
        """Return every block to the initial temperature."""
        self._temps.fill(self._initial)

    def set_temperatures(self, temperatures: np.ndarray) -> None:
        """Rebind the state to a copy of ``temperatures`` [degC].

        The lane-batched kernel (:mod:`repro.sim.batch`) owns a run's
        stacked state and hands each leaving lane's end state back
        here, so a second run of the same engine starts where the
        first ended.
        """
        temperatures = np.array(temperatures, dtype=float)
        if temperatures.shape != self._temps.shape:
            raise ThermalModelError(
                f"expected {self._temps.shape[0]} block temperatures, "
                f"got {temperatures.shape}"
            )
        self._temps = temperatures

    # -- updates -------------------------------------------------------------
    def step_cycle(self, powers: np.ndarray) -> np.ndarray:
        """One clock cycle of forward Euler (the paper's Equation 5).

        ``powers`` is an array of per-block power [W] in floorplan
        order.  Returns the new temperatures (a view copy).

        Forward Euler on ``dT/dt = (P - (T - T_sink)/R) / C`` is only
        stable for ``dt < 2 * tau``; at or beyond that the update
        oscillates with growing amplitude and silently produces garbage
        temperatures.  A timestep that large is rejected outright --
        use :meth:`advance` (exact for constant power) instead.
        """
        if self.cycle_time >= self._euler_limit:
            raise ThermalModelError(
                f"cycle_time {self.cycle_time:g} s is forward-Euler "
                f"unstable: it must stay below 2*min(tau) = "
                f"{self._euler_limit:g} s; use advance() for long "
                f"constant-power intervals"
            )
        powers = np.asarray(powers, dtype=float)
        if powers.shape != self._temps.shape:
            raise ThermalModelError(
                f"expected {self._temps.shape[0]} block powers, got {powers.shape}"
            )
        leak = (self._temps - self.heatsink_temperature) / self._resistance
        self._temps += (self.cycle_time / self._capacitance) * (powers - leak)
        return self._temps.copy()

    def advance(self, powers: np.ndarray, cycles: int) -> np.ndarray:
        """Exact update for ``cycles`` cycles of constant per-block power.

        For constant power the block ODE has the closed-form solution
        toward the steady state ``T_sink + P * R``; using it makes the
        fast engine's thermal state independent of the sampling interval.
        """
        powers = np.asarray(powers, dtype=float)
        return self.advance_from(self._temps, powers, cycles)[0].copy()

    def _decay(self, cycles: int) -> np.ndarray:
        """Per-block ``exp(-h / tau)`` for an ``h = cycles`` interval.

        Two-level cache: the per-instance dict (keyed by ``cycles``
        alone) makes the per-sample lookup a single dict hit, and the
        process-wide ``_SHARED_DECAY`` store (keyed by the model's
        exact tau bits and timestep as well) shares the computed arrays
        across every model instance a sweep constructs, so only the
        first run over a given floorplan/timestep pays the ``np.exp``.
        The cached array is marked read-only so no caller can corrupt
        it -- a hard requirement once it is shared between instances.
        """
        decay = self._decay_cache.get(cycles)
        if decay is None:
            key = (*self._decay_key, cycles)
            decay = _SHARED_DECAY.get(key)
            if decay is None:
                if len(_SHARED_DECAY) >= _SHARED_DECAY_MAX:
                    _SHARED_DECAY.clear()
                decay = np.exp(-(cycles * self.cycle_time) / self._tau)
                decay.flags.writeable = False
                _SHARED_DECAY[key] = decay
            self._decay_cache[cycles] = decay
        return decay

    def advance_from(
        self, start: np.ndarray, powers: np.ndarray, cycles: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused exact update: one call returns ``(end, steady)``.

        The fast engine's original per-sample body paid for the
        steady-state solve twice -- once via :meth:`steady_state` (to
        feed :meth:`fraction_above`) and once more inside
        :meth:`advance`.  This fused entry point computes ``steady``
        once and reuses it for the exponential update, which is
        bit-identical because both paths evaluate the exact same
        expression (``T_sink + P * R``).

        ``start`` is the caller's snapshot of the pre-advance state
        (normally :attr:`temperatures_view`); the model's state is
        *rebound* to a freshly computed ``end`` array, so ``start``
        remains a valid, untouched snapshot after the call.  Both
        returned arrays are internal (no defensive copies): ``end`` is
        the model's new state and must not be mutated by the caller;
        ``steady`` is freshly allocated and owned by the caller.
        """
        if cycles <= 0:
            raise ThermalModelError("cycles must be positive")
        if powers.shape != self._temps.shape:
            raise ThermalModelError(
                f"expected {self._temps.shape[0]} block powers, got {powers.shape}"
            )
        steady = self.heatsink_temperature + powers * self._resistance
        self._temps = steady + (start - steady) * self._decay(cycles)
        return self._temps, steady

    def advance_batch(
        self,
        start: np.ndarray,
        powers: np.ndarray,
        cycles: int,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked exact update for B independent lanes: ``(end, steady)``.

        ``start`` and ``powers`` have shape ``(B, n_blocks)``; each row
        is one independent simulation lane over this model's R/C
        parameters.  Every operation is the same elementwise expression
        :meth:`advance_from` evaluates (``T_sink + P * R`` and the
        cached exponential decay), merely broadcast over the leading
        lane axis, so row ``b`` of the result is bit-identical to a
        single-lane ``advance_from(start[b], powers[b], cycles)``, but
        for the sign bit of a NaN where two NaN operands meet: IEEE 754
        leaves open which one the result carries, and numpy's vector
        and tail loops choose differently.

        ``out``, an ``(end, steady)`` pair of ``(B, n_blocks)`` arrays,
        receives the result in place (the lane kernel passes its stage
        rows) and is returned; neither may overlap ``start`` or
        ``powers``.  The in-place ufuncs evaluate the same expression,
        so the result is bit-identical to the allocating form.

        Pure: unlike :meth:`advance_from`, the model's own temperature
        state is **not** touched -- the caller (the lane-batched engine
        of :mod:`repro.sim.batch`) owns the stacked state.
        """
        if cycles <= 0:
            raise ThermalModelError("cycles must be positive")
        start = np.asarray(start, dtype=float)
        powers = np.asarray(powers, dtype=float)
        if powers.shape[-1] != self._temps.shape[0]:
            raise ThermalModelError(
                f"expected {self._temps.shape[0]} block powers per lane, "
                f"got {powers.shape}"
            )
        if out is None:
            steady = self.heatsink_temperature + powers * self._resistance
            end = steady + (start - steady) * self._decay(cycles)
            return end, steady
        end, steady = out
        sink, resistance, decay = self._lane_constants(len(powers), cycles)
        # ``out`` by position: numpy parses it faster than the keyword.
        np.multiply(powers, resistance, steady)
        np.add(sink, steady, steady)
        np.subtract(start, steady, end)
        np.multiply(end, decay, end)
        np.add(steady, end, end)
        return end, steady

    def _lane_constants(self, lanes: int, cycles: int) -> tuple:
        """``(T_sink, R, exp(-h / tau))`` tiled to ``(lanes, n_blocks)``.

        Same-shape operands take numpy's fast elementwise path, where a
        broadcast row or a Python scalar costs a setup per call; the
        values, and so the results, are the same.
        """
        key = (lanes, cycles)
        tiles = self._lane_tiles.get(key)
        if tiles is None:
            shape = (lanes, len(self._tau))
            tiles = tuple(
                np.broadcast_to(value, shape).copy()
                for value in (
                    self.heatsink_temperature,
                    self._resistance,
                    self._decay(cycles),
                )
            )
            self._lane_tiles[key] = tiles
        return tiles

    # -- analysis helpers ------------------------------------------------------
    def steady_state(self, powers: np.ndarray) -> np.ndarray:
        """Steady-state block temperatures under constant power [degC]."""
        powers = np.asarray(powers, dtype=float)
        return self.heatsink_temperature + powers * self._resistance

    def power_for_temperature(self, name: str, temperature: float) -> float:
        """Constant power that holds a block at ``temperature`` [W].

        Used by the boxcar power proxy of Section 6 to convert a
        temperature trigger into an equivalent average-power trigger:
        ``P_trig = (T_trig - T_sink) / R``.
        """
        block = self.floorplan.block(name)
        return (temperature - self.heatsink_temperature) / block.resistance

    def fraction_above(
        self,
        start: np.ndarray,
        steady: np.ndarray,
        duration_seconds: float,
        threshold: float,
    ) -> np.ndarray:
        """Per-block fraction of an interval spent above ``threshold``.

        For a constant-power interval each block moves exponentially
        from ``start`` toward ``steady``; the trajectory is monotonic,
        so the crossing time (if any) is
        ``t* = tau * ln((steady - start) / (steady - threshold))``.
        Used to count emergency/stress cycles with sub-sample accuracy.

        Implemented on top of :meth:`fractions_above` (the fused
        multi-threshold kernel); a property test asserts the two stay
        bit-identical.
        """
        return self.fractions_above(
            start, steady, duration_seconds, (threshold,)
        )[0]

    def fractions_above(
        self,
        start: np.ndarray,
        steady: np.ndarray,
        duration_seconds: float,
        thresholds,
    ) -> np.ndarray:
        """Per-block above-threshold fractions for several thresholds.

        The fast engines need the emergency *and* the stress fraction
        of every sample; evaluating both in one broadcast pass shares
        the trajectory analysis (rising mask, crossing-time ``log``)
        instead of running the whole kernel twice.  Returns an array of
        shape ``(len(thresholds), n_blocks)`` whose row ``k`` is
        bit-identical to ``fraction_above(..., thresholds[k])`` --
        every operation is the same elementwise expression, merely
        broadcast over the threshold axis.

        ``start``/``steady`` may also carry leading axes.  The sample
        stage of :mod:`repro.sim.stage` passes a whole chunk at once,
        shape ``(samples, lanes, n_blocks)``: one call per chunk
        instead of one per sample.  The thresholds then broadcast to
        shape ``(len(thresholds), samples, lanes, n_blocks)`` and each
        ``(sample, lane)`` slice is bit-identical to its own 1-D pass,
        for the same reason as the threshold axis: pure elementwise
        broadcasting.
        """
        start = np.asarray(start, dtype=float)
        steady = np.asarray(steady, dtype=float)
        thr = np.asarray(thresholds, dtype=float).reshape(
            (-1,) + (1,) * start.ndim
        )
        if duration_seconds <= 0:
            # Zero-duration limit: the fraction degenerates to the
            # instantaneous indicator "strictly above threshold now".
            return (start > thr).astype(float)
        tau = self._tau
        # Crossing time t* = tau * ln((steady - start) / (steady - thr)).
        # The denominator is zero only where ``steady == thr`` exactly;
        # those lanes are provably excluded from both crossing masks
        # below (they are neither strictly above nor strictly below the
        # threshold), so the division is made warning-free by
        # substituting a harmless denominator instead of wrapping the
        # whole pass in an ``np.errstate`` context (measurably costly
        # per sample).  Every lane that *is* consumed evaluates the
        # exact same expression as before -- bit-identity is asserted
        # against the pinned reference kernel's per-threshold passes.
        denominator = steady - thr
        ratio = (steady - start) / np.where(
            denominator != 0.0, denominator, 1.0
        )
        cross = tau * np.log(np.where(ratio > 0, ratio, 1.0))
        cross.clip(0.0, duration_seconds, out=cross)
        scaled = cross / duration_seconds
        rising = steady > start
        start_above = start > thr
        steady_above = steady > thr
        steady_below = steady < thr
        # Rising toward a steady state strictly above threshold,
        # starting below: crosses upward at t*.  Falling from above
        # threshold toward a steady state strictly below it: crosses
        # downward at t*.  Started above and heading to (or
        # asymptotically toward) a steady state at or above the
        # threshold: never drops below.  The three masks are pairwise
        # disjoint, so ``where`` composition order is irrelevant;
        # remaining lanes never exceed the threshold and stay zero.
        fraction = np.where(rising & ~start_above & steady_above,
                            1.0 - scaled, 0.0)
        fraction = np.where(~rising & start_above & steady_below,
                            scaled, fraction)
        fraction = np.where(start_above & ~steady_below, 1.0, fraction)
        return fraction

    def time_to_temperature(
        self, name: str, power: float, target: float
    ) -> float:
        """Seconds for one block to heat from its current temperature to
        ``target`` under constant ``power``, or ``inf`` if unreachable.
        """
        index = self.floorplan.index(name)
        steady = self.heatsink_temperature + power * self._resistance[index]
        current = float(self._temps[index])
        if (target - current) * (steady - current) <= 0:
            return 0.0 if current == target else float("inf")
        if abs(steady - target) < 1e-12 or abs(steady - current) < 1e-12:
            return float("inf")
        ratio = (steady - target) / (steady - current)
        if ratio <= 0:
            return float("inf")
        return float(-self._tau[index] * np.log(ratio))
