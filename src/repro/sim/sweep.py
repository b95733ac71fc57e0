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
from repro.dtm.mechanisms import FetchToggling
from repro.dtm.policies import HierarchicalPolicy, make_policy
from repro.errors import SimulationError
from repro.faults import FaultyActuator, FaultySensor
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


def build_engine(spec, telemetry=None) -> FastEngine:
    """Build (but do not run) the engine for one single-core spec.

    ``spec`` is a :class:`~repro.sim.parallel.WorkSpec`.  The one
    factory behind :func:`run_one`, the sweep executor and the
    lane-batched engine (:mod:`repro.sim.batch`): policy construction,
    sensor and fault-injection wrapping, and engine assembly happen
    here once, so a batched lane starts from an engine bit-identical to
    its serial counterpart.  Every sensor and policy is built fresh
    from the spec's values, so no state carries over between runs.
    """
    if spec.core_benchmarks:
        raise SimulationError(
            f"multicore spec {spec.benchmark!r} has no single-core engine"
        )
    spec.check()
    floorplan = (
        spec.floorplan if spec.floorplan is not None else Floorplan.default()
    )
    policy = make_policy(
        spec.policy,
        floorplan,
        spec.dtm_config,
        anti_windup=spec.anti_windup,
        setpoint=spec.setpoint,
    )
    if spec.backup_trigger is not None:
        policy = HierarchicalPolicy(policy, backup_trigger=spec.backup_trigger)
    sensor = spec.sensor.build() if spec.sensor is not None else None
    actuator = None
    schedule = spec.fault_schedule
    if schedule is not None:
        sensor = FaultySensor(
            sensor if sensor is not None else IdealSensor(),
            schedule,
            telemetry=telemetry,
        )
        if schedule.actuator_stuck_windows or schedule.actuator_ignore_windows:
            config = (
                spec.dtm_config if spec.dtm_config is not None else DTMConfig()
            )
            actuator = FaultyActuator(
                FetchToggling(config.toggle_levels),
                schedule,
                telemetry=telemetry,
            )
    return FastEngine(
        get_profile(spec.benchmark),
        policy=policy,
        floorplan=floorplan,
        machine=spec.machine,
        thermal_config=spec.thermal_config,
        dtm_config=spec.dtm_config,
        seed=spec.seed,
        record_history=spec.record_history,
        sensor=sensor,
        failsafe=spec.failsafe,
        actuator=actuator,
        telemetry=telemetry,
    )


def run_one(
    benchmark: str, policy: str, *, telemetry=None, **fields
) -> RunResult:
    """Run one benchmark under one named policy, in this process.

    ``fields`` are :class:`~repro.sim.parallel.WorkSpec` fields
    (``instructions``, ``seed``, ``setpoint``, ``sensor``,
    ``fault_schedule``, ``failsafe``, ...): the run is exactly the one
    a sweep runs for that spec.  ``telemetry`` is a
    :class:`~repro.telemetry.core.Telemetry` observing the run
    (metrics, per-sample trace, span profile); fault injectors and the
    failsafe guard report their events onto its trace stream.
    """
    # Imported here: parallel builds on this module.
    from repro.sim.parallel import WorkSpec, _execute

    return _execute(WorkSpec(benchmark, policy, **fields), telemetry)


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

    Every sweep setting left as ``None`` (``jobs``, ``options``,
    ``batch``, ``cluster``, ``cache``) comes from the installed
    :class:`~repro.sim.parallel.SweepDefaults` (see
    :func:`~repro.sim.parallel.resolve_sweep`).

    ``jobs`` fans the matrix out over worker processes via
    :mod:`repro.sim.parallel` (``0`` means all cores).  Results and
    folded-back telemetry are bit-identical to the serial sweep
    (property-tested); only profiler spans differ, as the per-run
    ``engine.run`` spans happen in worker processes.

    ``options`` (a :class:`~repro.sim.parallel.SweepOptions`) enables
    the fault-tolerant orchestrator: retries, per-spec timeouts,
    checkpoint/resume, and failure isolation.  A spec that fails
    permanently under a non-strict policy is *omitted* from the
    returned mapping (its ``sweep.spec_failed`` event carries the
    details); with ``options.strict`` the sweep raises one aggregated
    :class:`~repro.errors.SweepError` instead.

    ``batch`` is the lane-batch width (see :mod:`repro.sim.batch`):
    groups of up to ``batch`` compatible runs advance through one
    vectorized :class:`~repro.sim.batch.BatchEngine` kernel, inside
    each worker process when ``jobs > 1``.  Batched results and
    telemetry are bit-identical to the serial sweep.

    ``cluster`` (a :class:`~repro.sim.distributed.ClusterConfig`)
    shards the matrix across distributed workers instead of executing
    locally: this process becomes the coordinator, and
    ``jobs``/``batch`` apply on each worker's own command line.  Results and telemetry stay
    bit-identical to the local sweep (see docs/performance.md,
    "Level 4").

    ``cache`` routes the matrix through the cross-sweep result cache
    (:mod:`repro.sim.cache`; unset, the installed default or
    ``REPRO_CACHE``): previously completed runs replay
    bit-identically instead of executing, fresh runs write back.  See
    docs/performance.md, "Level 5".
    """
    # Imported here: parallel builds on this module.
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
