"""One benchmark per paper table: the regeneration harness.

``pytest benchmarks/ --benchmark-only`` reruns every table of the
paper's evaluation (at quick budgets) and times the regeneration.  Each
bench also asserts the table's key qualitative property so a regression
in the *result* fails the bench, not just the timing.
"""

from repro.experiments import (
    table1_duality,
    table2_config,
    table3_rc,
    table4_characterization,
    table5_categories,
    table6_structure_temps,
    table7_emergency_breakdown,
    table8_stress_breakdown,
    table9_proxy_structure,
    table10_proxy_chipwide,
    table11_dtm_performance,
    table12_setpoint_sweep,
)
from repro.experiments.common import suite_runs


def _once(benchmark, fn, **kwargs):
    return benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)


def test_bench_table1(benchmark):
    result = _once(benchmark, table1_duality.run)
    assert len(result.rows) == 5


def test_bench_table2(benchmark):
    result = _once(benchmark, table2_config.run)
    assert any("RUU" in str(row["value"]) for row in result.rows)


def test_bench_table3(benchmark):
    result = _once(benchmark, table3_rc.run)
    assert result.rows[-1]["structure"] == "chip"


def test_bench_table4(benchmark):
    suite_runs.cache_clear()
    result = _once(benchmark, table4_characterization.run, quick=True)
    assert len(result.rows) == 18
    by_name = {row["benchmark"]: row for row in result.rows}
    # Extreme benchmarks show emergencies; low ones never stress.
    assert by_name["gcc"]["pct_above_emergency"] > 10.0
    assert by_name["gzip"]["pct_above_stress"] < 1.0


def test_bench_table5(benchmark):
    result = _once(benchmark, table5_categories.run, quick=True)
    by_name = {row["benchmark"]: row for row in result.rows}
    assert by_name["gcc"]["measured"] == "extreme"
    assert by_name["gzip"]["measured"] == "low"


def test_bench_table6(benchmark):
    result = _once(benchmark, table6_structure_temps.run, quick=True)
    by_name = {row["benchmark"]: row for row in result.rows}
    assert by_name["gcc"]["regfile"] > 102.0
    assert by_name["gzip"]["regfile"] < 101.0


def test_bench_table7(benchmark):
    result = _once(benchmark, table7_emergency_breakdown.run, quick=True)
    by_name = {row["benchmark"]: row for row in result.rows}
    assert by_name["gcc"]["regfile"] > by_name["gcc"]["dcache"]


def test_bench_table8(benchmark):
    result = _once(benchmark, table8_stress_breakdown.run, quick=True)
    by_name = {row["benchmark"]: row for row in result.rows}
    assert by_name["mesa"]["regfile"] > 50.0


def test_bench_table9(benchmark):
    result = _once(benchmark, table9_proxy_structure.run, quick=True)
    # The boxcar proxy must disagree with the RC model somewhere.
    total_disagreement = sum(
        row["missed_10k"] + row["false_10k"] for row in result.rows
    )
    assert total_disagreement > 0


def test_bench_table10(benchmark):
    result = _once(benchmark, table10_proxy_chipwide.run, quick=True)
    # The paper's finding: the chip-wide proxy misses localized
    # emergencies for some benchmarks.
    assert any(row["missed_of_em_10k"] > 10.0 for row in result.rows)


def test_bench_table11(benchmark):
    result = _once(
        benchmark,
        table11_dtm_performance.run,
        quick=True,
        benchmarks=("gcc", "mesa", "art", "gzip"),
    )
    reductions = result.extras["loss_reduction_vs_toggle1"]
    assert reductions["pid"] > 0.5  # paper: 65 % suite-wide
    mean_row = result.rows[-1]
    assert mean_row["em_pid"] == 0.0


def test_bench_table12(benchmark):
    result = _once(
        benchmark,
        table12_setpoint_sweep.run,
        quick=True,
        benchmarks=("gcc",),
        setpoints=(101.0, 101.8),
    )
    by_setpoint = {row["setpoint"]: row for row in result.rows}
    assert by_setpoint[101.8]["safe_pid"] == "yes"
    assert by_setpoint[101.8]["safe_toggle1"] == "NO"
