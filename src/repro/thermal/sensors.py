"""Temperature sensor models.

The paper assumes an idealized sensor per monitored block (gain 1, no
noise, no offset) and flags realistic sensor behaviour as future work.
We provide the ideal sensor plus two realistic variants -- additive
Gaussian noise and quantization -- so the controller experiments can
probe robustness (one of the paper's claims is that feedback control
remains effective when the plant or sensing is imperfectly modeled).

Every sensor implements the :class:`Sensor` protocol -- a single
``read(true_temperature) -> float`` method.  Wrappers compose: the
fault injector :class:`~repro.faults.sensor.FaultySensor` accepts any
of these models as its inner sensor, and the failsafe layer
(:mod:`repro.dtm.failsafe`) treats whatever comes out as untrusted.
Note that sensors may legitimately return ``NaN`` (a dropped reading);
*consumers*, not sensors, decide how to handle implausible values.

:class:`SensorConfig` is the by-value form a sweep spec carries: each
run builds its own sensor from it, so a seeded noise stream never
carries over from one run to the next.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ConfigError


@runtime_checkable
class Sensor(Protocol):
    """Structural type of every temperature sensor model."""

    def read(self, true_temperature: float) -> float:
        """Return the measured temperature [degC] (may be ``NaN``)."""
        ...  # pragma: no cover - protocol stub


class IdealSensor:
    """Reports the true temperature (the paper's assumption, gain 1)."""

    def read(self, true_temperature: float) -> float:
        """Return the measured temperature [degC]."""
        return true_temperature


class NoisySensor:
    """Adds zero-mean Gaussian noise and a fixed offset to the reading."""

    def __init__(
        self, noise_sigma: float = 0.05, offset: float = 0.0, seed: int = 0
    ) -> None:
        if noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        self.noise_sigma = noise_sigma
        self.offset = offset
        self._rng = random.Random(seed)

    def read(self, true_temperature: float) -> float:
        """Return a noisy measurement of the true temperature."""
        noise = self._rng.gauss(0.0, self.noise_sigma) if self.noise_sigma else 0.0
        return true_temperature + self.offset + noise


class QuantizedSensor:
    """Quantizes readings to a fixed step (e.g. a 0.25 K on-chip ADC)."""

    def __init__(self, step: float = 0.25) -> None:
        if step <= 0:
            raise ConfigError("quantization step must be positive")
        self.step = step

    def read(self, true_temperature: float) -> float:
        """Return the reading rounded to the nearest quantization step."""
        return self.step * math.floor(true_temperature / self.step + 0.5)


@dataclass(frozen=True)
class SensorConfig:
    """A sensor model by value: Gaussian noise plus offset, or quantized.

    :meth:`build` returns a fresh :class:`NoisySensor` (``noise_sigma``,
    ``offset``, ``seed``) or, with ``step`` set, a
    :class:`QuantizedSensor`; a quantized sensor takes no noise or
    offset.
    """

    noise_sigma: float = 0.0
    offset: float = 0.0
    seed: int = 0
    step: float | None = None

    def __post_init__(self) -> None:
        if not self.noise_sigma >= 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.step is not None:
            if not self.step > 0:
                raise ConfigError("quantization step must be positive")
            if self.noise_sigma or self.offset:
                raise ConfigError(
                    "a quantized sensor takes no noise_sigma or offset"
                )

    def build(self) -> "NoisySensor | QuantizedSensor":
        """A new sensor in its initial state."""
        if self.step is not None:
            return QuantizedSensor(self.step)
        return NoisySensor(self.noise_sigma, self.offset, self.seed)
