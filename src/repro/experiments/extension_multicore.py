"""Extension X6: multicore scaling of per-core vs coordinated DTM.

The paper manages one core; this experiment tiles N copies of its
floorplan onto a shared die (:mod:`repro.multicore`) and runs a
migration-free multiprogram mix -- one benchmark pinned per core,
assigned round-robin from a hot/cool list -- under three regimes:

* **unmanaged** -- no DTM anywhere (the baseline both success metrics
  are measured against);
* **per-core** -- each core runs its own feedback loop (the paper's
  policy, replicated), blind to its neighbors;
* **coordinated** -- the same per-core loops underneath a chip-level
  :class:`~repro.multicore.coordinator.ThermalBudgetCoordinator` that
  arbitrates a shared duty budget and demotes cores camped at the
  emergency threshold.

For each core count the table reports the unmanaged union emergency
time, then throughput retained (vs unmanaged) and residual emergency
time for the per-core and coordinated regimes, plus the coordinator's
demotion/budget activity.  Because lateral core-to-core coupling is
weak (~15 K/W vs the ~0.2 K/W vertical path), per-core control already
removes most emergencies; what coordination buys is bounded *chip*
behaviour -- the duty budget caps total toggling demand the way a
package power limit would.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.experiments.common import benchmark_budget
from repro.experiments.reporting import ExperimentResult, format_table, percent
from repro.sim.parallel import WorkSpec, run_specs

#: Chip sizes swept, as in the acceptance criteria.
DEFAULT_CORE_COUNTS: tuple[int, ...] = (2, 4, 8, 16)

#: Round-robin per-core benchmark assignment: alternating hot (gcc,
#: art) and cool (gzip, mesa) programs so every chip size mixes both.
DEFAULT_MIX: tuple[str, ...] = ("gcc", "gzip", "art", "mesa")

#: The three management regimes swept per chip size, in report order.
_REGIMES: tuple[str, ...] = ("unmanaged", "percore", "coordinated")


def _mix_for(n_cores: int, mix: tuple[str, ...]) -> tuple[str, ...]:
    """Assign benchmarks to cores round-robin from ``mix``."""
    return tuple(mix[i % len(mix)] for i in range(n_cores))


def build_specs(
    core_counts: tuple[int, ...] = DEFAULT_CORE_COUNTS,
    policy: str = "pid",
    coordinator: str = "proportional",
    mix: tuple[str, ...] = DEFAULT_MIX,
    quick: bool = False,
    seed: int = 0,
) -> list[WorkSpec]:
    """The experiment's runs as multicore :class:`WorkSpec`\\ s.

    Three specs per chip size (unmanaged / per-core / coordinated),
    each tagged ``(n_cores, regime)`` so :func:`run` can rebuild its
    table rows from executor results in any grouping.
    """
    specs = []
    for n_cores in core_counts:
        benchmarks = _mix_for(n_cores, mix)
        budget = max(benchmark_budget(name, quick) for name in benchmarks)
        if quick:
            # Multicore cost scales with N; keep quick mode quick.
            budget = min(budget, 400_000)
        for regime, run_policy, run_coordinator in (
            ("unmanaged", "none", None),
            ("percore", policy, None),
            ("coordinated", policy, coordinator),
        ):
            specs.append(
                WorkSpec(
                    benchmark=benchmarks[0],
                    policy=run_policy,
                    instructions=budget,
                    seed=seed,
                    core_benchmarks=benchmarks,
                    coordinator=run_coordinator,
                    tag=(n_cores, regime),
                )
            )
    return specs


def run(
    core_counts: tuple[int, ...] = DEFAULT_CORE_COUNTS,
    policy: str = "pid",
    coordinator: str = "proportional",
    mix: tuple[str, ...] = DEFAULT_MIX,
    quick: bool = False,
    seed: int = 0,
    telemetry=None,
    jobs: int | None = None,
) -> ExperimentResult:
    """Sweep chip sizes; compare unmanaged / per-core / coordinated.

    The N x regime matrix runs through the orchestrated executor
    (:func:`~repro.sim.parallel.run_specs`), so ``jobs`` fans chip
    sizes out over worker processes and the installed sweep options
    (retries, timeouts, checkpointing) apply.  Multicore specs never
    lane-batch -- each is a singleton group -- but they share the same
    journal format as single-core sweeps.
    """
    specs = build_specs(
        core_counts,
        policy=policy,
        coordinator=coordinator,
        mix=mix,
        quick=quick,
        seed=seed,
    )
    results = run_specs(specs, jobs=jobs, telemetry=telemetry)
    by_tag = {}
    for spec, result in zip(specs, results):
        if result is None:
            raise SimulationError(
                f"multicore spec {spec.tag!r} failed permanently; "
                "see the sweep.spec_failed telemetry event for details"
            )
        by_tag[spec.tag] = result
    rows = []
    for n_cores in core_counts:
        baseline = by_tag[(n_cores, "unmanaged")]
        percore = by_tag[(n_cores, "percore")]
        coordinated = by_tag[(n_cores, "coordinated")]
        rows.append(
            {
                "cores": n_cores,
                "base_em": percent(baseline.emergency_fraction),
                "percore_thr": percent(
                    percore.relative_throughput(baseline)
                ),
                "percore_em": percent(percore.emergency_fraction),
                "coord_thr": percent(
                    coordinated.relative_throughput(baseline)
                ),
                "coord_em": percent(coordinated.emergency_fraction),
                "demotions": int(
                    coordinated.extra.get("coordinator_demotions", 0)
                ),
                "budget_samples": int(
                    coordinated.extra.get("coordinator_budget_samples", 0)
                ),
            }
        )
    text = format_table(
        rows,
        columns=(
            ("cores", "cores", "d"),
            ("base_em", "unmanaged em%", ".2f"),
            ("percore_thr", f"{policy} %thr", ".1f"),
            ("percore_em", f"{policy} em%", ".3f"),
            ("coord_thr", f"+{coordinator} %thr", ".1f"),
            ("coord_em", f"+{coordinator} em%", ".3f"),
            ("demotions", "demotions", "d"),
            ("budget_samples", "budget hits", "d"),
        ),
        title=(
            f"Multicore DTM scaling ({'+'.join(mix)} round-robin, "
            f"policy={policy}, coordinator={coordinator})"
        ),
    )
    notes = (
        "Per-core loops replicate the paper's single-core result at\n"
        "every chip size: emergencies vanish at a few percent of\n"
        "throughput.  The coordinator adds chip-level guarantees on\n"
        "top -- the duty budget caps aggregate fetch demand and the\n"
        "demotion watchdog removes cores that camp at the emergency\n"
        "threshold -- at a small extra throughput cost that grows\n"
        "with core count as the shared budget tightens."
    )
    return ExperimentResult(
        experiment_id="X6",
        title="Multicore scaling: per-core vs coordinated DTM",
        rows=rows,
        text=text,
        notes=notes,
    )
