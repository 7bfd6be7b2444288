"""Table IV: average cycles of Method-1, software baseline and dummy variant.

This is the paper's headline experiment: the same operand mix is run through
all three solutions on the cycle-accurate Rocket-like emulator with the RoCC
decimal accelerator attached, and the per-multiplication averages are split
into software-part and hardware-part cycles.
"""

from __future__ import annotations

import pytest

from repro.core import reporting
from repro.testgen.config import SolutionKind


@pytest.fixture(scope="module")
def table_iv_report(framework):
    return framework.evaluate_table_iv()


def test_table_iv_full(benchmark, framework):
    """Time one full Table IV evaluation and print the reproduced table."""
    report = benchmark.pedantic(framework.evaluate_table_iv, rounds=1, iterations=1)
    print()
    print(reporting.render_table_iv(report))
    speedups = report.speedups()
    benchmark.extra_info["speedup_method1"] = round(speedups[SolutionKind.METHOD1], 2)
    benchmark.extra_info["speedup_dummy"] = round(
        speedups[SolutionKind.METHOD1_DUMMY], 2
    )
    benchmark.extra_info["samples"] = report.num_samples


@pytest.mark.parametrize("kind", [
    SolutionKind.METHOD1,
    SolutionKind.SOFTWARE,
    SolutionKind.METHOD1_DUMMY,
])
def test_table_iv_single_solution(benchmark, framework, kind):
    """Per-solution measurement (one row of Table IV at a time)."""
    report = benchmark.pedantic(
        framework.run_cycle_accurate, args=(kind,), rounds=1, iterations=1
    )
    benchmark.extra_info["avg_total_cycles"] = round(report.avg_total_cycles)
    benchmark.extra_info["avg_hw_cycles"] = round(report.avg_hw_cycles)
    benchmark.extra_info["cycles_stdev"] = round(report.stdev_cycles, 1)
    print(
        f"\n{report.solution_name}: sw={report.avg_sw_cycles:.0f} "
        f"hw={report.avg_hw_cycles:.0f} total={report.avg_total_cycles:.0f} "
        f"(stdev {report.stdev_cycles:.1f}, {report.num_samples} samples)"
    )


def test_table_iv_hardware_overhead(benchmark, framework):
    """The other axis of the co-design trade-off: accelerator area."""
    report = benchmark(framework.hardware_overhead)
    print()
    print(report.render())
