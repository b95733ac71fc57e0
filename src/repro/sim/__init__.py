"""Full-system simulation: workload + power + thermal + DTM.

Two engines share the power, thermal, controller, and DTM code:

* :class:`~repro.sim.simulator.DetailedSimulator` -- drives the
  cycle-level out-of-order core; used for validation, calibration, and
  short detailed studies.
* :class:`~repro.sim.fast.FastEngine` -- replays a profile's calibrated
  activity view one sampling interval at a time with exact exponential
  thermal updates; used for the paper-scale sweeps.  Its
  duty-to-throughput response is calibrated against the detailed core
  (experiment C1).

:class:`~repro.sim.batch.BatchEngine` stacks B independent fast-engine
runs (lanes) through one structure-of-arrays kernel, bit-identical to
running each lane serially; ``run_specs(..., batch=B)`` composes it
with the process-level executor.  :mod:`repro.sim.distributed` shards
a sweep across machines (``run_suite(..., cluster=...)``), with the
same bit-identity contract.

How a sweep runs when a call leaves a setting out is one frozen
:class:`~repro.sim.parallel.SweepDefaults` (jobs, batch, options,
cluster, cache), installed for a block with
:func:`~repro.sim.parallel.sweep_defaults`.  Every sweep settles its
settings once, in :func:`~repro.sim.parallel.resolve_sweep`: explicit
argument, then the installed defaults, then ``REPRO_CACHE``, then
built-ins.  Both command lines build their defaults through the one
flag group in :mod:`repro.sim.flags`.
"""

from repro.sim.batch import (
    BatchEngine,
    LaneOutcome,
    batch_compatibility_key,
    plan_batches,
    run_spec_lanes,
    validate_batch,
)
from repro.sim.checkpoint import (
    SWEEP_SCHEMA,
    CheckpointJournal,
    load_checkpoint,
    spec_fingerprint,
)
from repro.sim.fast import FastEngine
from repro.sim.ledger import SpecFailure, SpecOutcome
from repro.sim.parallel import (
    ResolvedSweep,
    RetryPolicy,
    SweepDefaults,
    SweepOptions,
    WorkSpec,
    current_sweep_defaults,
    execute_payloads,
    matrix_specs,
    resolve_sweep,
    run_outcomes,
    run_specs,
    sweep_defaults,
)

# Imported after parallel: the distributed layer builds on it.
from repro.sim.distributed import (
    ClusterConfig,
    ShardCoordinator,
    run_cluster_outcomes,
    run_worker,
)
from repro.sim.results import History, RunResult
from repro.sim.simulator import DetailedSimulator
from repro.sim.sweep import run_suite

__all__ = [
    "BatchEngine",
    "CheckpointJournal",
    "ClusterConfig",
    "DetailedSimulator",
    "FastEngine",
    "History",
    "LaneOutcome",
    "ResolvedSweep",
    "RetryPolicy",
    "RunResult",
    "SWEEP_SCHEMA",
    "ShardCoordinator",
    "SpecFailure",
    "SpecOutcome",
    "SweepDefaults",
    "SweepOptions",
    "WorkSpec",
    "batch_compatibility_key",
    "current_sweep_defaults",
    "execute_payloads",
    "load_checkpoint",
    "matrix_specs",
    "plan_batches",
    "resolve_sweep",
    "run_cluster_outcomes",
    "run_outcomes",
    "run_spec_lanes",
    "run_specs",
    "run_suite",
    "run_worker",
    "spec_fingerprint",
    "sweep_defaults",
    "validate_batch",
]
