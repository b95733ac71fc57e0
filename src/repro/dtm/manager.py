"""DTM orchestration: sampling, policy checks, quantization, interrupts.

``DTMManager`` is the Figure 1 control loop minus the plant: every
sampling interval it reads the hottest monitored sensor, consults the
policy on the policy's own check cadence, quantizes the commanded duty
through the fetch-toggling actuator, and accounts interrupt stalls for
interrupt-driven policies.

Two optional robustness layers extend the paper's loop:

* a **failsafe guard** (:class:`~repro.dtm.failsafe.FailsafeGuard`)
  between the sensor and the policy -- plausibility gating, a thermal
  watchdog, and graceful degradation to an open-loop fallback duty;
* a pluggable **actuator**, so fault-injection wrappers
  (:class:`~repro.faults.actuator.FaultyActuator`) can corrupt the
  command path without the manager knowing.

When a :class:`~repro.telemetry.core.Telemetry` instance is attached,
the manager stages the controller-side half of each trace record
(gated measurement, error and P/I/D terms, pre/post-saturation output,
quantized duty, failsafe state) in one positional ``record_control``
call per sample; the engine completes the record with the plant-side
fields.  The default is the null telemetry, which costs one boolean
test per sample.
"""

from __future__ import annotations

import math

from repro.config import DTMConfig, FailsafeConfig
from repro.dtm.failsafe import FailsafeGuard, FailsafeState
from repro.dtm.mechanisms import FetchToggling
from repro.dtm.triggers import InterruptModel
from repro.telemetry.core import ensure_telemetry


class DTMManager:
    """Runs one policy against a stream of temperature samples.

    With an enabled telemetry, each :meth:`on_sample` stages the
    sample's controller half: a CT policy's controller attributes as
    its last update left them (``last_error``, ``last_proportional``,
    ``integral``, ``last_derivative``, ``last_unsaturated``,
    ``last_output``), or NaN terms and the policy's raw output, clamped
    to [0, 1], for any other policy.
    """

    def __init__(
        self,
        policy,
        dtm_config: DTMConfig | None = None,
        sensor=None,
        failsafe: FailsafeGuard | FailsafeConfig | None = None,
        actuator=None,
        telemetry=None,
    ) -> None:
        self.policy = policy
        #: A CT policy's controller, whose attributes the trace reads.
        self._controller = getattr(policy, "controller", None)
        self.config = dtm_config if dtm_config is not None else DTMConfig()
        self.actuator = (
            actuator
            if actuator is not None
            else FetchToggling(self.config.toggle_levels)
        )
        self.interrupts = InterruptModel(
            enabled=self.config.use_interrupts and policy.is_interrupt_driven,
            cost_cycles=self.config.interrupt_cost,
        )
        if isinstance(failsafe, FailsafeConfig):
            failsafe = FailsafeGuard(failsafe)
        self.failsafe = failsafe
        self._telemetry = ensure_telemetry(telemetry)
        if failsafe is not None and self._telemetry.enabled:
            failsafe.attach_telemetry(self._telemetry)
        self._sensor = sensor
        self._sample_index = 0
        self._raw_output = 1.0
        self.samples = 0
        self.engaged_samples = 0

    @property
    def duty(self) -> float:
        """Current quantized fetch duty."""
        return self.actuator.duty

    @property
    def sampling_interval(self) -> int:
        """Cycles between temperature samples."""
        return self.config.sampling_interval

    @property
    def failsafe_state(self) -> FailsafeState | None:
        """Guard state, or ``None`` when no failsafe layer is fitted."""
        return self.failsafe.state if self.failsafe is not None else None

    @property
    def failsafe_events(self) -> tuple:
        """Recorded :class:`~repro.errors.FailsafeEngaged` transitions.

        Returned as a tuple so callers cannot mutate the guard's
        internal log through this accessor (regression-tested).
        """
        return tuple(self.failsafe.events) if self.failsafe is not None else ()

    def on_sample(self, max_temperature: float) -> tuple[float, int]:
        """Process one sampling instant.

        ``max_temperature`` is the hottest monitored block's true
        temperature; the sensor model (if any) perturbs it.  Returns
        ``(duty, stall_cycles)``: the duty in force -- what the
        actuator's ``set_output`` returned, when this sample drove it
        -- and the interrupt overhead to charge against execution.  A
        drive that crosses the engaged/disengaged boundary (duty 1.0)
        costs one interrupt.  Both sample kernels call this once per
        sample, so the drive and the sample counters are inline.
        """
        measurement = (
            self._sensor.read(max_temperature)
            if self._sensor is not None
            else max_temperature
        )
        actuator = self.actuator
        index = self._sample_index
        duty = previous = actuator.duty
        stall = 0
        forced = False
        if self.failsafe is not None:
            decision = self.failsafe.gate(measurement, index)
            if decision.forced_duty is not None:
                # Watchdog / degraded mode: the guard owns the duty.
                # Keep the policy's state machine ticking on the last
                # good reading (when one exists) so integrators do not
                # restart cold at re-arm, but discard its command.
                forced = True
                if (
                    decision.measurement is not None
                    and index % self.policy.check_interval_samples == 0
                ):
                    self._raw_output = self.policy.decide(decision.measurement)
                duty = actuator.set_output(decision.forced_duty)
            measurement = decision.measurement
        if (
            not forced
            and measurement is not None
            and index % self.policy.check_interval_samples == 0
        ):
            self._raw_output = self.policy.decide(measurement)
            duty = actuator.set_output(self._raw_output)
        if duty != previous and (duty < 1.0) != (previous < 1.0):
            stall = self.interrupts.on_transition()
        if self._telemetry.enabled:
            # The controller half of this sample's trace record, staged
            # in one positional call from the controller's attributes.
            controller = self._controller
            if controller is not None:
                error = controller.last_error
                p_term = controller.last_proportional
                i_term = controller.integral
                d_term = controller.last_derivative
                pre = controller.last_unsaturated
                post = controller.last_output
            else:
                error = p_term = i_term = d_term = math.nan
                pre = self._raw_output
                # min(1.0, max(0.0, pre)) without the two calls.
                post = pre if pre > 0.0 else 0.0
                if post >= 1.0:
                    post = 1.0
            self._telemetry.record_control(
                index,
                math.nan if measurement is None else measurement,
                error, p_term, i_term, d_term, pre, post,
                duty,
                stall,
                self.failsafe.state.value if self.failsafe is not None else "",
            )
        self._sample_index = index + 1
        self.samples += 1
        if duty < 1.0:
            self.engaged_samples += 1
        return duty, stall

    def reset(self) -> None:
        """Restore the manager, policy, and actuator to initial state."""
        self.policy.reset()
        self.actuator.reset()
        self._sample_index = 0
        self._raw_output = 1.0
        self.samples = 0
        self.engaged_samples = 0
        self.interrupts.reset()
        if self.failsafe is not None:
            self.failsafe.reset()
        if self._sensor is not None and hasattr(self._sensor, "reset"):
            self._sensor.reset()

    @property
    def engaged_fraction(self) -> float:
        """Fraction of samples with any toggling engaged."""
        return self.engaged_samples / self.samples if self.samples else 0.0
