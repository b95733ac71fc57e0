"""Discrete PID controller with output saturation and anti-windup.

Paper Section 3.2: the controller output is the weighted sum of a
proportional, an integral, and a derivative action on the error

    u(t) = bias + Kp*e(t) + Ki * integral(e) + Kd * de/dt .

Saturation and integral windup (Section 3.3): when the actuator
saturates (fetch already fully on, or fully off) the integral would
otherwise keep growing without effect and then take a long time to
unwind, during which the processor can run into a thermal emergency.
The paper freezes the integrator at saturation and prevents the
accumulated integral from going negative; both behaviours are
implemented here (``AntiWindup.CONDITIONAL`` plus the non-negative
clamp), and can be disabled for the windup ablation experiment.

The derivative acts on the *measurement* rather than the error by
default, which removes the derivative kick on setpoint changes without
altering disturbance response.
"""

from __future__ import annotations

import enum

from repro.errors import ControllerError


class AntiWindup(enum.Enum):
    """Integral anti-windup strategies."""

    #: No protection -- the ablation baseline.
    NONE = "none"
    #: Freeze the integrator while the output is saturated and the error
    #: would push it further into saturation (the paper's mechanism).
    CONDITIONAL = "conditional"
    #: Clamp the integral term to the output range.
    CLAMP = "clamp"


#: The members :meth:`PIDController.update` tests, bound once: an enum
#: member lookup costs more than the test itself.
_CLAMP = AntiWindup.CLAMP
_CONDITIONAL = AntiWindup.CONDITIONAL


class PIDController:
    """A sampled PID controller producing a saturated scalar output."""

    def __init__(
        self,
        kp: float,
        ki: float = 0.0,
        kd: float = 0.0,
        setpoint: float = 0.0,
        sample_time: float = 1.0,
        output_limits: tuple[float, float] = (0.0, 1.0),
        bias: float = 0.0,
        anti_windup: AntiWindup = AntiWindup.CONDITIONAL,
        integral_non_negative: bool = True,
        derivative_on_measurement: bool = True,
    ) -> None:
        if sample_time <= 0:
            raise ControllerError("sample_time must be positive")
        low, high = output_limits
        if low >= high:
            raise ControllerError("output_limits must be (low, high) with low < high")
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.setpoint = setpoint
        self.sample_time = sample_time
        self.output_limits = (low, high)
        self.bias = bias
        self.anti_windup = anti_windup
        self.integral_non_negative = integral_non_negative
        self.derivative_on_measurement = derivative_on_measurement
        self._integral = 0.0
        self._previous_error: float | None = None
        self._previous_measurement: float | None = None
        self._last_output = bias
        # Last-update internals, kept for telemetry/introspection
        # (repro.telemetry traces P/I/D terms and saturation per sample).
        self.last_error = 0.0
        self.last_proportional = 0.0
        self.last_derivative = 0.0
        self.last_unsaturated = bias

    # -- state ------------------------------------------------------------
    @property
    def integral(self) -> float:
        """Current value of the integral term (Ki * accumulated error)."""
        return self._integral

    @property
    def last_output(self) -> float:
        """Most recent saturated output."""
        return self._last_output

    @property
    def terms(self) -> dict[str, float]:
        """P/I/D breakdown of the most recent :meth:`update`.

        ``integral`` is the accumulated integral term *after* the
        update (post anti-windup); ``unsaturated`` is the raw control
        law output before clamping to ``output_limits``; ``output`` is
        the saturated value actually returned.
        """
        return {
            "error": self.last_error,
            "proportional": self.last_proportional,
            "integral": self._integral,
            "derivative": self.last_derivative,
            "unsaturated": self.last_unsaturated,
            "output": self._last_output,
        }

    def reset(self) -> None:
        """Clear accumulated state (integral and derivative history)."""
        self._integral = 0.0
        self._previous_error = None
        self._previous_measurement = None
        self._last_output = self.bias
        self.last_error = 0.0
        self.last_proportional = 0.0
        self.last_derivative = 0.0
        self.last_unsaturated = self.bias

    # -- control law --------------------------------------------------------
    def update(self, measurement: float) -> float:
        """Advance one sample period and return the saturated output."""
        error = self.setpoint - measurement
        low, high = self.output_limits
        anti_windup = self.anti_windup

        proportional = self.kp * error
        derivative = self._derivative_term(error, measurement)

        candidate_integral = self._integral + self.ki * error * self.sample_time
        if self.integral_non_negative:
            candidate_integral = max(0.0, candidate_integral)
        if anti_windup is _CLAMP:
            candidate_integral = min(max(candidate_integral, low), high)

        unsaturated = self.bias + proportional + candidate_integral + derivative
        output = min(max(unsaturated, low), high)

        if anti_windup is _CONDITIONAL:
            saturated_high = unsaturated > high and error > 0
            saturated_low = unsaturated < low and error < 0
            if not (saturated_high or saturated_low):
                self._integral = candidate_integral
        else:
            self._integral = candidate_integral

        self._previous_error = error
        self._previous_measurement = measurement
        self._last_output = output
        self.last_error = error
        self.last_proportional = proportional
        self.last_derivative = derivative
        self.last_unsaturated = unsaturated
        return output

    def _derivative_term(self, error: float, measurement: float) -> float:
        if not self.kd:
            return 0.0
        if self.derivative_on_measurement:
            if self._previous_measurement is None:
                return 0.0
            slope = (measurement - self._previous_measurement) / self.sample_time
            return -self.kd * slope
        if self._previous_error is None:
            return 0.0
        slope = (error - self._previous_error) / self.sample_time
        return self.kd * slope
