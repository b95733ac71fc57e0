"""Telemetry overhead guard: disabled instrumentation must be free.

The observability layer's contract is that the default (disabled)
configuration costs the fast engine less than 2% (docs/observability.md).
The disabled path adds only a handful of hoisted boolean tests per
sample, so the guard measures both sides of that ratio directly:

* the engine's real per-sample cost (wall time / samples, disabled);
* the cost of the per-sample disabled-path micro-ops (the kernel's
  hoisted flags and the null-telemetry flag test), measured in
  isolation.

The asserted bound -- instrumentation micro-ops < 2% of a sample -- is
intentionally generous: the measured ratio is typically well under
0.5%.  A second test asserts the stronger functional property that a
telemetry-enabled run is *bit-identical* to a disabled one, so
enabling observability can never change science outputs.

The enabled guard writes the ``telemetry`` section of the receipt
(``benchmarks/_receipt.py``): enabled and disabled microseconds per
sample, their ratio, the repeat count and the spread of the repeats.

This module needs no pytest plugins (plain ``perf_counter`` timing),
so CI can run it with only numpy + pytest installed:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_telemetry.py -q
"""

import time

from benchmarks._receipt import update_receipt
from repro.sim.fast import FastEngine
from repro.sim.sweep import run_one
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.profiles import get_profile

#: Instruction budget for engine timing (hundreds of samples, < 1 s).
INSTRUCTIONS = 500_000

#: Overhead budget for disabled telemetry, as a fraction of a sample.
OVERHEAD_BUDGET = 0.02

#: Enabled-over-disabled per-sample factor that trips the enabled guard.
TRIPWIRE = 25

#: Timed runs per side for the enabled guard and its receipt.
REPEATS = 5


def _run_engine(repeats: int = 3) -> tuple[float, int]:
    """Best-of-N seconds-per-sample for a disabled-telemetry run."""
    best = float("inf")
    samples = 0
    for _ in range(repeats):
        engine = FastEngine(get_profile("gcc"), seed=0)
        start = time.perf_counter()
        engine.run(instructions=INSTRUCTIONS)
        elapsed = time.perf_counter() - start
        samples = engine.manager.samples
        best = min(best, elapsed / samples)
    return best, samples


class _Lane:
    """The lane kernel's per-lane slot the disabled path reads."""

    __slots__ = ("staged",)

    def __init__(self) -> None:
        self.staged = None


def _disabled_micro_ops(iterations: int) -> float:
    """Seconds per iteration of the disabled path's per-sample checks.

    Mirrors exactly what the instrumented call sites of a one-lane step
    add when telemetry is off (``repro.sim.batch``): the kernel's
    hoisted ``timing`` flag (the latency clock), its ``keep_rows`` flag
    (the step's latency row) and the lane's ``staged`` rows test, and
    the DTM manager's ``telemetry.enabled`` test (its controller half).
    A disabled profiler's spans cost nothing: ``NullProfiler.wrap``
    hands back the plant call and ``on_sample`` themselves.
    """
    telemetry = NULL_TELEMETRY
    lane = _Lane()
    timing = False
    keep_rows = False
    sink = 0
    start = time.perf_counter()
    for _ in range(iterations):
        if timing:  # kernel: latency clock gate
            sink += 1
        staged = lane.staged
        if staged is not None:  # kernel: staged-row gate
            sink += 1
        if telemetry.enabled:  # manager: controller-half gate
            sink += 1
        if keep_rows:  # kernel: latency-row gate
            sink += 1
    elapsed = time.perf_counter() - start
    assert sink == 0
    return elapsed / iterations


def test_disabled_overhead_under_two_percent():
    """Per-sample cost of disabled instrumentation < 2% of a sample."""
    per_sample, samples = _run_engine()
    assert samples > 100
    micro = min(_disabled_micro_ops(200_000) for _ in range(3))
    ratio = micro / per_sample
    assert ratio < OVERHEAD_BUDGET, (
        f"disabled telemetry micro-ops cost {1e9 * micro:.1f} ns/sample "
        f"against a {1e6 * per_sample:.2f} us engine sample "
        f"({100 * ratio:.3f}% > {100 * OVERHEAD_BUDGET:g}%)"
    )


def test_disabled_run_bit_identical_to_enabled():
    """Enabling telemetry never perturbs simulation results."""
    disabled = run_one("gcc", "pid", instructions=INSTRUCTIONS)
    enabled = run_one(
        "gcc", "pid", instructions=INSTRUCTIONS, telemetry=Telemetry()
    )
    assert enabled.cycles == disabled.cycles
    assert enabled.instructions == disabled.instructions
    assert enabled.ipc == disabled.ipc
    assert enabled.max_temperature == disabled.max_temperature
    assert enabled.emergency_fraction == disabled.emergency_fraction
    assert enabled.energy_joules == disabled.energy_joules


def _run_enabled(repeats: int) -> list[float]:
    """Seconds-per-sample of each fully-traced run."""
    times = []
    for _ in range(repeats):
        engine = FastEngine(
            get_profile("gcc"), seed=0, telemetry=Telemetry()
        )
        start = time.perf_counter()
        engine.run(instructions=INSTRUCTIONS)
        times.append((time.perf_counter() - start) / engine.manager.samples)
    return times


def test_enabled_overhead_is_bounded():
    """Full telemetry (trace + metrics + spans) stays within ~25x.

    Not a contract like the disabled bound -- just a tripwire against
    accidentally quadratic record assembly.  The measured factor is the
    receipt's: ``enabled_over_disabled`` in the ``telemetry`` section of
    ``BENCH_sweep.json``.  The bound is deliberately loose because CI
    machines are noisy and span timing amplifies scheduler jitter.
    """
    disabled = []
    for _ in range(REPEATS):
        best, samples = _run_engine(repeats=1)
        disabled.append(best)
    enabled = _run_enabled(REPEATS)
    per_sample_disabled, best = min(disabled), min(enabled)
    update_receipt(
        "telemetry",
        {
            "instructions": INSTRUCTIONS,
            "samples": samples,
            "repeats": REPEATS,
            "disabled_us_per_sample": round(1e6 * per_sample_disabled, 3),
            "enabled_us_per_sample": round(1e6 * best, 3),
            "enabled_over_disabled": round(best / per_sample_disabled, 3),
            "disabled_spread": round(_spread(disabled), 3),
            "enabled_spread": round(_spread(enabled), 3),
            "tripwire": TRIPWIRE,
        },
    )
    assert best < TRIPWIRE * per_sample_disabled, (
        f"enabled telemetry: {1e6 * best:.2f} us/sample vs "
        f"{1e6 * per_sample_disabled:.2f} us/sample disabled"
    )


def _spread(times: list[float]) -> float:
    """``(max - min) / min`` of the repeats."""
    return (max(times) - min(times)) / min(times)
