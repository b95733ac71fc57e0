"""Suite sweeps: run (benchmark x policy) matrices on the fast engine.

The experiment drivers build on :func:`run_suite`, which runs every
requested benchmark under every requested policy (plus the unmanaged
baseline needed for relative-IPC metrics) with shared configuration and
deterministic seeding.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.config import DTMConfig, MachineConfig, ThermalConfig
from repro.control.pid import AntiWindup
from repro.dtm.mechanisms import FetchToggling
from repro.dtm.policies import make_policy
from repro.errors import SimulationError
from repro.faults import FaultSchedule, FaultyActuator, FaultySensor
from repro.sim.fast import FastEngine
from repro.sim.results import RunResult
from repro.telemetry.core import ensure_telemetry
from repro.thermal.floorplan import Floorplan
from repro.thermal.sensors import IdealSensor
from repro.workloads.profiles import BENCHMARKS, get_profile

#: Default instruction budget per run (fast-engine samples are cheap;
#: this covers hundreds of thermal time constants).
DEFAULT_INSTRUCTIONS: int = 2_000_000


def _validate_instructions(instructions: float) -> float:
    """Reject non-positive, non-finite, or fractional budgets early.

    These used to slip through to the engine (``instructions=0`` ran
    zero samples and divided by zero cycles; ``1e6 + 0.5`` silently
    committed half an instruction of budget accounting error).
    """
    try:
        instructions = float(instructions)
    except (TypeError, ValueError):
        raise SimulationError(
            f"instructions must be a number, got {instructions!r}"
        ) from None
    if not math.isfinite(instructions) or instructions <= 0:
        raise SimulationError(
            f"instructions must be a positive finite count, "
            f"got {instructions!r}"
        )
    if instructions != int(instructions):
        raise SimulationError(
            f"instructions must be a whole number of instructions, "
            f"got {instructions!r}"
        )
    return instructions


def build_engine(
    benchmark: str,
    policy_name: str,
    floorplan: Floorplan | None = None,
    machine: MachineConfig | None = None,
    thermal_config: ThermalConfig | None = None,
    dtm_config: DTMConfig | None = None,
    seed: int = 0,
    record_history: bool = False,
    anti_windup: AntiWindup = AntiWindup.CONDITIONAL,
    setpoint: float | None = None,
    sensor=None,
    policy=None,
    fault_schedule: FaultSchedule | None = None,
    failsafe=None,
    telemetry=None,
) -> FastEngine:
    """Build (but do not run) the engine :func:`run_one` would run.

    The single factory path behind both the serial sweep and the
    lane-batched engine (:mod:`repro.sim.batch`): policy construction,
    fault-injection wrapping, and engine assembly happen here once, so
    a batched lane starts from an engine bit-identical to its serial
    counterpart.
    """
    floorplan = floorplan if floorplan is not None else Floorplan.default()
    if policy is None:
        policy = make_policy(
            policy_name,
            floorplan,
            dtm_config,
            anti_windup=anti_windup,
            setpoint=setpoint,
        )
    actuator = None
    if fault_schedule is not None:
        sensor = FaultySensor(
            sensor if sensor is not None else IdealSensor(),
            fault_schedule,
            telemetry=telemetry,
        )
        if (
            fault_schedule.actuator_stuck_windows
            or fault_schedule.actuator_ignore_windows
        ):
            config = dtm_config if dtm_config is not None else DTMConfig()
            actuator = FaultyActuator(
                FetchToggling(config.toggle_levels),
                fault_schedule,
                telemetry=telemetry,
            )
    engine = FastEngine(
        get_profile(benchmark),
        policy=policy,
        floorplan=floorplan,
        machine=machine,
        thermal_config=thermal_config,
        dtm_config=dtm_config,
        seed=seed,
        record_history=record_history,
        sensor=sensor,
        failsafe=failsafe,
        actuator=actuator,
        telemetry=telemetry,
    )
    return engine


def run_one(
    benchmark: str,
    policy_name: str,
    instructions: float = DEFAULT_INSTRUCTIONS,
    floorplan: Floorplan | None = None,
    machine: MachineConfig | None = None,
    thermal_config: ThermalConfig | None = None,
    dtm_config: DTMConfig | None = None,
    seed: int = 0,
    record_history: bool = False,
    anti_windup: AntiWindup = AntiWindup.CONDITIONAL,
    setpoint: float | None = None,
    sensor=None,
    policy=None,
    fault_schedule: FaultSchedule | None = None,
    failsafe=None,
    telemetry=None,
) -> RunResult:
    """Run one benchmark under one named policy.

    Pass a prebuilt ``policy`` object to bypass the name-based factory
    (used for custom policies such as the hierarchical extension).

    ``fault_schedule`` wraps the sensor (default: an ideal one) in a
    :class:`~repro.faults.sensor.FaultySensor` and, when the schedule
    carries actuator windows, the actuator in a
    :class:`~repro.faults.actuator.FaultyActuator`.  ``failsafe`` is a
    :class:`~repro.config.FailsafeConfig` (or prebuilt guard) enabling
    the failsafe DTM layer.  ``telemetry`` is a
    :class:`~repro.telemetry.core.Telemetry` observing the run
    (metrics, per-sample trace, span profile); fault injectors and the
    failsafe guard report their events onto its trace stream.
    """
    instructions = _validate_instructions(instructions)
    engine = build_engine(
        benchmark,
        policy_name,
        floorplan=floorplan,
        machine=machine,
        thermal_config=thermal_config,
        dtm_config=dtm_config,
        seed=seed,
        record_history=record_history,
        anti_windup=anti_windup,
        setpoint=setpoint,
        sensor=sensor,
        policy=policy,
        fault_schedule=fault_schedule,
        failsafe=failsafe,
        telemetry=telemetry,
    )
    return engine.run(instructions=instructions)


def run_suite(
    policies: Iterable[str],
    benchmarks: Iterable[str] | None = None,
    instructions: float = DEFAULT_INSTRUCTIONS,
    floorplan: Floorplan | None = None,
    machine: MachineConfig | None = None,
    thermal_config: ThermalConfig | None = None,
    dtm_config: DTMConfig | None = None,
    seed: int = 0,
    include_baseline: bool = True,
    telemetry=None,
    jobs: int | None = None,
    options=None,
    batch: int | None = None,
    cluster=None,
    cache=None,
) -> Mapping[tuple[str, str], RunResult]:
    """Run the full (benchmark x policy) matrix.

    Returns results keyed by ``(benchmark, policy)``; the unmanaged
    baseline is included under policy name ``"none"`` unless disabled.

    A single ``telemetry`` instance is shared across every run: trace
    records are tagged with their (benchmark, policy) context, metrics
    aggregate over the whole sweep, and the profiler accumulates one
    ``sweep.run_suite`` span around per-run ``engine.run`` spans (the
    latter only on a serial, unbatched, uncached sweep -- the one that
    records straight into the sink).  The matrix runs through
    :func:`~repro.sim.parallel.run_specs` in every configuration.

    ``jobs`` fans the matrix out over worker processes via
    :mod:`repro.sim.parallel` (``None`` defers to
    :func:`~repro.sim.parallel.get_default_jobs`, ``0`` means all
    cores).  Results and folded-back telemetry are bit-identical to the
    serial sweep (property-tested); only profiler spans differ, as the
    per-run ``engine.run`` spans happen in worker processes.

    ``options`` (a :class:`~repro.sim.parallel.SweepOptions`, or the
    process-wide default installed via
    :func:`~repro.sim.parallel.set_default_sweep_options`) enables the
    fault-tolerant orchestrator: retries, per-spec timeouts,
    checkpoint/resume, and failure isolation.  A spec that fails
    permanently under a non-strict policy is *omitted* from the
    returned mapping (its ``sweep.spec_failed`` event carries the
    details); with ``options.strict`` the sweep raises one aggregated
    :class:`~repro.errors.SweepError` instead.

    ``batch`` is the lane-batch width (see :mod:`repro.sim.batch`):
    groups of up to ``batch`` compatible runs advance through one
    vectorized :class:`~repro.sim.batch.BatchEngine` kernel, inside
    each worker process when ``jobs > 1``.  ``None`` defers to
    :func:`~repro.sim.parallel.get_default_batch`.  Batched results
    and telemetry are bit-identical to the serial sweep.

    ``cluster`` (a :class:`~repro.sim.distributed.ClusterConfig`, or
    the process-wide default installed via
    :func:`~repro.sim.parallel.set_default_cluster`) shards the matrix
    across distributed workers instead of executing locally: this
    process becomes the coordinator, and ``jobs``/``batch`` apply on
    each worker's own command line.  Results and telemetry stay
    bit-identical to the local sweep (see docs/performance.md,
    "Level 4").

    ``cache`` routes the matrix through the cross-sweep result cache
    (:mod:`repro.sim.cache`; ``None`` defers to
    :func:`~repro.sim.parallel.resolve_cache`, i.e. the process-wide
    default or ``REPRO_CACHE``): previously completed runs replay
    bit-identically instead of executing, fresh runs write back.  See
    docs/performance.md, "Level 5".
    """
    # Imported here: parallel builds on this module's run_one/defaults.
    from repro.sim.parallel import matrix_specs, run_specs

    telemetry = ensure_telemetry(telemetry)
    specs = matrix_specs(
        list(benchmarks) if benchmarks is not None else list(BENCHMARKS),
        policies,
        seeds=(seed,),
        include_baseline=include_baseline,
        instructions=_validate_instructions(instructions),
        floorplan=floorplan,
        machine=machine,
        thermal_config=thermal_config,
        dtm_config=dtm_config,
    )
    with telemetry.span("sweep.run_suite"):
        run_results = run_specs(
            specs,
            jobs=jobs,
            telemetry=telemetry,
            options=options,
            batch=batch,
            cluster=cluster,
            cache=cache,
        )
    return {
        (spec.benchmark, spec.policy): result
        for spec, result in zip(specs, run_results)
        if result is not None
    }


def suite_summary(
    results: Mapping[tuple[str, str], RunResult], policy_name: str
) -> dict[str, float]:
    """Mean relative IPC and emergency fraction for one policy.

    Averages over every benchmark present in ``results`` that has both
    a managed run and a ``"none"`` baseline.
    """
    relative = []
    emergencies = []
    for (benchmark, name), result in results.items():
        if name != policy_name:
            continue
        baseline = results.get((benchmark, "none"))
        if baseline is None:
            continue
        relative.append(result.relative_ipc(baseline))
        emergencies.append(result.emergency_fraction)
    if not relative:
        return {"mean_relative_ipc": 0.0, "mean_emergency_fraction": 0.0}
    return {
        "mean_relative_ipc": sum(relative) / len(relative),
        "mean_emergency_fraction": sum(emergencies) / len(emergencies),
    }
