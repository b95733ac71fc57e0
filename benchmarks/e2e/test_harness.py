"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; they sit
outside the tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.e2e import checks, child, cli, compare
from benchmarks.e2e.stats import tail_percentile
from benchmarks.e2e.tracer import Tracer, layer_metrics, merge_worker_files


def _tiny_specs():
    return child.make_specs(("gcc",), seed=0, instructions=50_000)[:2]


@pytest.mark.parametrize("name", sorted(child.WORKLOADS))
def test_tiny_pass_of_every_workload(name, tmp_path):
    workload = child.WORKLOADS[name]
    specs = _tiny_specs()
    state = workload.setup(specs, tmp_path)
    report = child.measure(workload, specs, state, tmp_path, seconds=0)
    assert len(report["passes"]) == workload.min_passes
    assert report["attempted"] == len(specs) * workload.min_passes
    assert report["failed"] == 0
    # 50k instructions is not a blessed budget: checked against a
    # reference run through the other kernel.
    assert report["golden"] == "unverified"
    assert all(p["samples"] > 0 for p in report["passes"])
    assert len(report["latencies_s"]) == report["attempted"]


def test_digest_mismatch_counts_as_failed(tmp_path):
    workload = child.WORKLOADS["t11_serial"]
    specs = _tiny_specs()
    wrong = {checks.spec_key(spec): "0" * 16 for spec in specs}
    report = child.measure(
        workload, specs, {}, tmp_path, seconds=0,
        expected=("verified", wrong, None),
    )
    assert report["failed"] == report["attempted"] > 0
    assert cli.extra_metrics(report)["failed_frac"] == 1.0


def test_telemetry_mismatch_fails_the_whole_pass(tmp_path):
    workload = child.WORKLOADS["hot_cache_cold"]
    specs = _tiny_specs()
    reference, _ = workload.reference(specs, {})
    digests = {
        checks.spec_key(spec): checks.result_digest(result)
        for spec, result in zip(specs, reference)
    }
    report = child.measure(
        workload, specs, {}, tmp_path, seconds=0,
        expected=("verified", digests, "not-the-digest"),
    )
    assert report["failed"] == report["attempted"]


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 145))
    # Nearest rank ceil(0.9 * 144) = 130 leaves 14 samples beyond.
    assert tail_percentile(values, 90) == 130
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(list(range(99)), 90)
    assert tail_percentile(list(range(100)), 90) == 89


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(seconds):
        now[0] += seconds

    inner = tracer.wrap("inner", lambda: advance(2.0))

    def body():
        advance(1.0)
        inner()
        advance(3.0)
        inner()

    outer = tracer.wrap("outer", body)
    # A span nested directly in one of its own name is folded into it.
    tracer.wrap("outer", outer)()
    assert tracer.stats["outer"] == [1, 8.0, 4.0]
    assert tracer.stats["inner"] == [2, 4.0, 4.0]
    assert tracer.top_s == 8.0
    assert sum(stat[2] for stat in tracer.stats.values()) == tracer.top_s


class _Kernel:
    def run(self):
        return sum(range(1000))


def test_forked_workers_write_trace_files_the_parent_merges(tmp_path):
    original = _Kernel.run
    tracer = Tracer(tmp_path)
    tracer.install([(_Kernel, "run", "kernel.run")])
    try:
        for _ in range(2):
            pid = os.fork()
            if pid == 0:
                try:
                    _Kernel().run()
                    _Kernel().run()
                finally:
                    os._exit(0)
            assert os.waitpid(pid, 0)[1] == 0
        _Kernel().run()
    finally:
        tracer.restore()
    assert _Kernel.run is original
    workers, busy = merge_worker_files(tmp_path)
    assert workers["kernel.run"][0] == 4
    assert busy == pytest.approx(workers["kernel.run"][1])
    assert tracer.stats["kernel.run"][0] == 1


def test_metric_names_match_benchmark_json():
    benchmark = json.loads(cli.BENCHMARK_PATH.read_text())
    per_layer = layer_metrics(
        {}, {}, wall_s=1.0, untraced_wall_s=1.0, pool_workers=0,
        worker_busy_s=0.0, cache_hits=0, cache_lookups=0,
        cache_bytes=0, journal_bytes=0,
    )
    assert sorted(per_layer) == sorted(e["name"] for e in benchmark["per_layer"])
    report = {
        "passes": [{"samples": 10, "wall_s": 1.0}],
        "latencies_s": [0.001 * i for i in range(1, 101)],
        "setup_samples_s": [0.5, 0.4, 0.6],
        "peak_rss_mb": 40.0,
    }
    assert sorted(cli.end_to_end_metrics(report)) == sorted(
        e["name"] for e in benchmark["end_to_end"]
    )
    assert [w["name"] for w in benchmark["workloads"]] == list(
        cli.WORKLOAD_NAMES
    )
    assert set(cli.WORKLOAD_NAMES) == set(child.WORKLOADS)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.0]
    assert compare.verdict(base, [100.5, 99.5], "lower", 0.1) == "ok"
    assert compare.verdict(base, [120.0, 121.0], "lower", 0.1) == "REGRESSION"
    assert compare.verdict(base, [80.0, 81.0], "higher", 0.1) == "REGRESSION"
    noisy = [50.0, 100.0, 150.0, 100.0]
    assert compare.verdict(noisy, [120.0], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [10.0], "lower", 0.1) == "ok"
