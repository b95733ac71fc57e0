"""Run all (or selected) experiments from the command line.

Usage::

    python -m repro.experiments                # everything, full budgets
    python -m repro.experiments --quick        # reduced budgets
    python -m repro.experiments table3_rc table11_dtm_performance
    python -m repro.experiments --jobs 8        # fan sweeps out over 8 cores
    python -m repro.experiments figure4_traces table7_emergency_breakdown \
        --trace-out suite.jsonl --metrics-out suite-metrics.json

The sweep flags (:mod:`repro.sim.flags`, the same group as
``python -m repro compare``) build one
:class:`~repro.sim.parallel.SweepDefaults`, installed with
:func:`~repro.sim.parallel.sweep_defaults` while the experiments run
and restored afterwards, so every ``run_suite`` / ``run_specs`` call
inside the experiment modules runs with them.  ``--jobs N`` fans sweeps
out over worker processes, ``--batch B`` advances up to B compatible
runs through one vectorized :class:`~repro.sim.batch.BatchEngine`
kernel, ``--cluster HOST:PORT --token SECRET`` serves every sweep to
distributed ``python -m repro work`` workers, and ``--cache [DIR]``
replays previously completed specs from the persistent store (see
docs/performance.md, "Level 5"; ``--no-cache`` disables caching even
when ``REPRO_CACHE`` is set).  Results are bit-identical to a serial,
uncached run either way.  ``--checkpoint`` implies ``--resume`` here:
every sweep of the run shares the one journal.

``--grid-solver {spectral,euler}`` / ``--resolution N`` select the
time integrator and mesh for the experiments built on the 2D grid
model (``validation_grid``, ``validation_grid_dtm``,
``validation_grid_convergence``); the spectral default advances each
interval in one exact closed-form step (docs/thermal_model.md).

``--trace-out`` / ``--metrics-out`` build one shared
:class:`~repro.telemetry.core.Telemetry` sink, hand it to every
experiment whose ``run`` accepts a ``telemetry`` keyword (currently
``figure4_traces`` and ``table7_emergency_breakdown``), and export the
accumulated trace / metrics afterwards.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import time

from repro.experiments import ALL_EXPERIMENTS
from repro.sim.flags import add_sweep_arguments, sweep_defaults_from_args
from repro.sim.parallel import sweep_defaults


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.experiments`` parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment module names (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use reduced instruction budgets",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="export the shared DTM trace (JSONL) accumulated by "
        "telemetry-aware experiments",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="export the shared metrics snapshot (JSON)",
    )
    grid = parser.add_argument_group(
        "grid experiments (see docs/thermal_model.md)"
    )
    grid.add_argument(
        "--grid-solver", choices=("spectral", "euler"), default=None,
        help="time integrator for experiments built on the 2D grid "
        "model (validation_grid, validation_grid_dtm, "
        "validation_grid_convergence): 'spectral' (default) is the "
        "exact-exponential eigenbasis solver, 'euler' the original "
        "pinned sub-stepped integrator",
    )
    grid.add_argument(
        "--resolution", type=int, default=None, metavar="N",
        help="grid resolution (N x N cells) for the grid experiments",
    )
    add_sweep_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.resolution is not None and args.resolution < 4:
        parser.error("--resolution must be at least 4")
    defaults = sweep_defaults_from_args(
        parser, args, checkpoint_resumes=True
    )

    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0

    chosen = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [name for name in chosen if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    telemetry = None
    if args.trace_out or args.metrics_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()

    with sweep_defaults(defaults):
        for name in chosen:
            module = importlib.import_module(f"repro.experiments.{name}")
            parameters = inspect.signature(module.run).parameters
            kwargs = {}
            if args.quick and "quick" in parameters:
                kwargs["quick"] = True
            if telemetry is not None and "telemetry" in parameters:
                kwargs["telemetry"] = telemetry
            if args.grid_solver is not None and "solver" in parameters:
                kwargs["solver"] = args.grid_solver
            if args.resolution is not None and "resolution" in parameters:
                kwargs["resolution"] = args.resolution
            started = time.time()
            result = module.run(**kwargs)
            elapsed = time.time() - started
            print(result)
            print(f"[{name}: {elapsed:.1f}s]")
            print()

    if telemetry is not None:
        from repro.telemetry import write_metrics_json, write_trace_jsonl

        if args.trace_out:
            lines = write_trace_jsonl(
                telemetry.trace, args.trace_out, meta=telemetry.meta
            )
            print(f"trace: {args.trace_out} ({lines} lines)")
        if args.metrics_out:
            write_metrics_json(telemetry.snapshot(), args.metrics_out)
            print(f"metrics: {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
