"""DTM response mechanisms (paper Section 2).

The paper's evaluation vehicle is **fetch toggling**: every N cycles,
instruction fetch is disabled.  Generalized by the controllers, the
toggling rate becomes a duty cycle in [0, 1] quantized to eight evenly
spaced levels (Section 5.3).  Also provided, for completeness and the
extension experiments, are the other mechanisms Brooks and Martonosi
studied: fetch throttling, speculation control, and voltage/frequency
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


class FetchToggling:
    """Quantized-duty fetch gate.

    ``set_output(u)`` maps a controller output in [0, 1] onto the
    nearest of ``levels`` evenly spaced duty values (0, 1/(L-1), ...,
    1).  Output 1 is fetch fully on; 0 is toggle1 (fetch fully off);
    0.5 is toggle2 (fetch every other cycle).  ``allows(cycle)``
    spreads the duty evenly over cycles with an error accumulator, so
    e.g. duty 3/7 admits fetch on 3 of every 7 cycles with no bursts.
    """

    def __init__(self, levels: int = 8) -> None:
        if levels < 2:
            raise ConfigError("need at least two duty levels")
        self.levels = levels
        self._duty = 1.0
        self._accumulator = 0.0

    @property
    def duty(self) -> float:
        """Current quantized duty cycle."""
        return self._duty

    def quantize(self, output: float) -> float:
        """Nearest representable duty for a raw controller output."""
        clamped = min(1.0, max(0.0, output))
        steps = self.levels - 1
        return round(clamped * steps) / steps

    def set_output(self, output: float) -> float:
        """Apply (quantized) controller output; returns the duty used.

        :meth:`quantize`, inline: this runs once per DTM sample.
        """
        steps = self.levels - 1
        self._duty = duty = round(min(1.0, max(0.0, output)) * steps) / steps
        return duty

    def allows(self, cycle: int) -> bool:
        """True if instruction fetch may proceed this cycle."""
        self._accumulator += self._duty
        if self._accumulator >= 1.0 - 1e-12:
            self._accumulator -= 1.0
            return True
        return False

    def reset(self) -> None:
        """Fully re-enable fetch and clear the accumulator."""
        self._duty = 1.0
        self._accumulator = 0.0


class FetchThrottling:
    """Reduce instructions fetched per cycle without skipping cycles.

    The paper notes its weakness: per-*cycle* structures (branch
    predictor, I-cache) are still accessed every cycle, so some hot
    spots are not relieved.  The mechanism maps a duty in [0, 1] to a
    fetch-width limit.
    """

    def __init__(self, full_width: int = 4) -> None:
        if full_width <= 0:
            raise ConfigError("fetch width must be positive")
        self.full_width = full_width
        self.width_limit = full_width

    def set_output(self, output: float) -> int:
        """Apply controller output; returns the new width limit (>= 1)."""
        clamped = min(1.0, max(0.0, output))
        self.width_limit = max(1, round(clamped * self.full_width))
        return self.width_limit


class SpeculationControl:
    """Stop fetching past N unresolved branches (Section 2.1).

    Ineffective for well-predicted programs, as the paper observes --
    with few mispredictions the unresolved-branch count stays low and
    the mechanism rarely engages.
    """

    def __init__(self, max_levels: int = 8) -> None:
        if max_levels <= 0:
            raise ConfigError("max_levels must be positive")
        self.max_levels = max_levels
        self.branch_limit: int | None = None

    def set_output(self, output: float) -> int | None:
        """Map duty to an unresolved-branch limit (duty 1 = unlimited)."""
        clamped = min(1.0, max(0.0, output))
        if clamped >= 1.0:
            self.branch_limit = None
        else:
            self.branch_limit = max(1, round(clamped * self.max_levels))
        return self.branch_limit


@dataclass(frozen=True)
class DVFSOperatingPoint:
    """One voltage/frequency pair."""

    frequency_scale: float
    voltage_scale: float

    @property
    def power_scale(self) -> float:
        """Dynamic power scales as f * V^2."""
        return self.frequency_scale * self.voltage_scale**2

    @property
    def performance_scale(self) -> float:
        """Throughput scales with frequency (memory effects ignored)."""
        return self.frequency_scale


class DVFSScaling:
    """Voltage/frequency scaling with a re-synchronization stall.

    The paper sets these mechanisms aside (the resynchronization stall
    and mandatory policy delay made them inferior to toggling) but they
    are part of the Section 2 taxonomy and are exercised by the
    mechanism-comparison extension experiment.
    """

    DEFAULT_POINTS = (
        DVFSOperatingPoint(1.0, 1.0),
        DVFSOperatingPoint(0.875, 0.95),
        DVFSOperatingPoint(0.75, 0.9),
        DVFSOperatingPoint(0.625, 0.85),
        DVFSOperatingPoint(0.5, 0.8),
    )

    def __init__(
        self,
        points: tuple[DVFSOperatingPoint, ...] = DEFAULT_POINTS,
        resync_cycles: int = 15_000,
    ) -> None:
        if not points:
            raise ConfigError("need at least one operating point")
        if resync_cycles < 0:
            raise ConfigError("resync_cycles must be non-negative")
        self.points = tuple(
            sorted(points, key=lambda p: p.frequency_scale, reverse=True)
        )
        self.resync_cycles = resync_cycles
        self._index = 0
        self.transitions = 0

    @property
    def current(self) -> DVFSOperatingPoint:
        """The active operating point."""
        return self.points[self._index]

    def set_output(self, output: float) -> tuple[DVFSOperatingPoint, int]:
        """Select the point for a duty-like output; returns (point, stall).

        Output 1 selects full speed; lower outputs select slower
        points.  Changing points costs ``resync_cycles`` of stall.
        """
        clamped = min(1.0, max(0.0, output))
        index = min(
            len(self.points) - 1, round((1.0 - clamped) * (len(self.points) - 1))
        )
        stall = 0
        if index != self._index:
            self._index = index
            self.transitions += 1
            stall = self.resync_cycles
        return self.current, stall
