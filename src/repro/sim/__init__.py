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
    RetryPolicy,
    SweepOptions,
    WorkSpec,
    execute_payloads,
    get_default_batch,
    get_default_cluster,
    get_default_jobs,
    get_default_sweep_options,
    matrix_specs,
    resolve_batch,
    run_outcomes,
    run_specs,
    set_default_batch,
    set_default_cluster,
    set_default_jobs,
    set_default_sweep_options,
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
    "RetryPolicy",
    "RunResult",
    "SWEEP_SCHEMA",
    "ShardCoordinator",
    "SpecFailure",
    "SpecOutcome",
    "SweepOptions",
    "WorkSpec",
    "batch_compatibility_key",
    "execute_payloads",
    "get_default_batch",
    "get_default_cluster",
    "get_default_jobs",
    "get_default_sweep_options",
    "load_checkpoint",
    "matrix_specs",
    "plan_batches",
    "resolve_batch",
    "run_cluster_outcomes",
    "run_outcomes",
    "run_spec_lanes",
    "run_specs",
    "run_suite",
    "run_worker",
    "set_default_batch",
    "set_default_cluster",
    "set_default_jobs",
    "set_default_sweep_options",
    "spec_fingerprint",
    "validate_batch",
]
