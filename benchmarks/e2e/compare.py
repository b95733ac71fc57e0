"""Compare two sets of run records metric by metric.

Usage::

    python -m benchmarks.e2e.compare A.json [A2.json ...] -- B.json [B2.json ...]

``A`` is the base (the parent commit), ``B`` the change; each file is a
run record written by ``python -m benchmarks.e2e``.  For every workload
and metric the records share, one row gives each side's median and
quartiles over its runs and the ratio B/A with its base.  A row is a
``REGRESSION`` when B's median is worse than A's by more than the
metric's ``BENCHMARK.json`` bound, and ``unresolved`` when A's own
quartile spread is wider than that bound, unless every B run is better
than every A run.  Exits 1 if any row is a regression.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from benchmarks.e2e.cli import metric_table
from benchmarks.e2e.stats import quartiles


def collect(paths) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values``, one value per record."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, report in record["workloads"].items():
            for metric, value in report["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def verdict(base, change, better: str, bound: float) -> str:
    """``ok``, ``REGRESSION`` or ``unresolved`` for one metric row."""
    q1, base_median, q3 = quartiles(base)
    change_median = quartiles(change)[1]
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(base_median)
    spread = (q3 - q1) / scale if scale else (0.0 if q3 == q1 else math.inf)
    every_run_better = all(
        sign * (b - a) < 0 for a in base for b in change
    )
    if spread > bound and not every_run_better:
        return "unresolved"
    if sign * (change_median - base_median) > bound * scale:
        return "REGRESSION"
    return "ok"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    base_paths, change_paths = argv[:split], argv[split + 1:]
    if not base_paths or not change_paths:
        print("error: need at least one record on each side", file=sys.stderr)
        return 2
    table = metric_table()
    base, change = collect(base_paths), collect(change_paths)
    print(f"A: {len(base_paths)} records, B: {len(change_paths)} records")
    print(f"{'workload':<18} {'metric':<34} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'B/A':>8}  verdict")
    regressions = 0
    for key in sorted(base.keys() & change.keys()):
        workload, metric = key
        entry = table[metric]
        a_q1, a_med, a_q3 = quartiles(base[key])
        b_q1, b_med, b_q3 = quartiles(change[key])
        ratio = f"{b_med / a_med:8.3f}" if a_med else f"{'n/a':>8}"
        if "bound" in entry:
            result = verdict(
                base[key], change[key], entry["better"], entry["bound"]
            )
            bound = f"bound {entry['bound']:g}"
        else:
            result, bound = "-", "per-layer, no bound"
        regressions += result == "REGRESSION"
        print(f"{workload:<18} {metric:<34} "
              f"{f'{a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]':>32} "
              f"{f'{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]':>32} "
              f"{ratio}  {result} (base {a_med:.6g} {entry['unit']}, "
              f"{bound}, {entry['better']} is better)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
