"""Ablation benches for the design choices DESIGN.md calls out.

* RoCC interface latency sweep — the paper's Section V discussion of the
  "latency overhead during data exchange with CPU because of the position of
  the interface into the pipeline".
* Cache replacement policy / size — the paper's discussion of Rocket's random
  replacement making cycle counts nondeterministic.
* Sample-count stability — why the paper averages over 8,000 samples.
* Divider latency — the dominant term in the software baseline's cycle count.
"""

from __future__ import annotations

import statistics

import pytest

from repro.core.evaluation import EvaluationFramework
from repro.rocket.config import CacheConfig, RocketConfig
from repro.testgen.config import SolutionKind
from benchmarks.conftest import bench_samples

_SAMPLES = max(20, bench_samples(60) // 3)


def _avg_cycles(kind, rocket_config=None, num_samples=_SAMPLES, seed=2018):
    framework = EvaluationFramework(
        num_samples=num_samples,
        seed=seed,
        rocket_config=rocket_config or RocketConfig(),
        verify_functionally=False,
    )
    return framework.run_cycle_accurate(kind)


@pytest.mark.parametrize("latency", [1, 2, 4, 8, 16])
def test_ablation_rocc_interface_latency(benchmark, latency):
    config = RocketConfig(
        rocc_cmd_latency_cycles=latency, rocc_resp_latency_cycles=latency
    )
    report = benchmark.pedantic(
        _avg_cycles, args=(SolutionKind.METHOD1, config), rounds=1, iterations=1
    )
    print(
        f"\ninterface latency {latency:2d}: total {report.avg_total_cycles:.0f} "
        f"(hw part {report.avg_hw_cycles:.0f})"
    )
    benchmark.extra_info["latency"] = latency
    benchmark.extra_info["avg_total_cycles"] = round(report.avg_total_cycles)
    benchmark.extra_info["avg_hw_cycles"] = round(report.avg_hw_cycles)


@pytest.mark.parametrize("replacement", ["random", "lru"])
def test_ablation_cache_replacement(benchmark, replacement):
    cache = CacheConfig(replacement=replacement)
    config = RocketConfig(icache=cache, dcache=cache)
    report = benchmark.pedantic(
        _avg_cycles, args=(SolutionKind.METHOD1, config), rounds=1, iterations=1
    )
    print(
        f"\n{replacement} replacement: total {report.avg_total_cycles:.0f}, "
        f"stdev {report.stdev_cycles:.1f}"
    )
    benchmark.extra_info["replacement"] = replacement
    benchmark.extra_info["cycles_stdev"] = round(report.stdev_cycles, 1)


@pytest.mark.parametrize("sets", [16, 64, 256])
def test_ablation_cache_size(benchmark, sets):
    cache = CacheConfig(sets=sets)
    config = RocketConfig(icache=cache, dcache=cache)
    report = benchmark.pedantic(
        _avg_cycles, args=(SolutionKind.SOFTWARE, config), rounds=1, iterations=1
    )
    print(f"\n{sets * 4 * 64 // 1024} KiB caches: total {report.avg_total_cycles:.0f}")
    benchmark.extra_info["cache_kib"] = sets * 4 * 64 // 1024
    benchmark.extra_info["avg_total_cycles"] = round(report.avg_total_cycles)


@pytest.mark.parametrize("num_samples", [10, 40, 160])
def test_ablation_sample_count_stability(benchmark, num_samples):
    """Averages stabilise as the sample count grows (the paper uses 8,000)."""

    def run():
        averages = []
        for seed in (1, 2, 3):
            report = _avg_cycles(
                SolutionKind.METHOD1, num_samples=num_samples, seed=seed
            )
            averages.append(report.avg_total_cycles)
        return averages

    averages = benchmark.pedantic(run, rounds=1, iterations=1)
    spread = statistics.pstdev(averages) / statistics.mean(averages)
    print(f"\n{num_samples} samples: averages {averages}, relative spread {spread:.3f}")
    benchmark.extra_info["relative_spread"] = round(spread, 4)


@pytest.mark.parametrize("div_latency", [10, 40, 62])
def test_ablation_divider_latency(benchmark, div_latency):
    """The software baseline is dominated by the iterative divider latency."""
    config = RocketConfig(div_latency_cycles=div_latency)
    report = benchmark.pedantic(
        _avg_cycles, args=(SolutionKind.SOFTWARE, config), rounds=1, iterations=1
    )
    print(f"\ndiv latency {div_latency}: software total {report.avg_total_cycles:.0f}")
    benchmark.extra_info["div_latency"] = div_latency
    benchmark.extra_info["avg_total_cycles"] = round(report.avg_total_cycles)
