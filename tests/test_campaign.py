"""Campaign engine: shard-merge correctness, determinism, accounting fixes."""

import random

import pytest

from repro.core.campaign import (
    CampaignCell,
    operation_cells,
    plan_shards,
    run_campaign,
    table_iv_cells,
)
from repro.core.evaluation import EvaluationFramework, run_solution_shard
from repro.core.pareto import ParetoAnalyzer
from repro.core.reporting import render_campaign, render_table_iv
from repro.core.results import ShardCycleReport, TableIVReport, merge_shard_reports
from repro.core.solution import standard_solutions
from repro.errors import ConfigurationError
from repro.testgen.config import SolutionKind
from repro.verification.coverage import CoverageTracker
from repro.verification.database import OperandClass, VerificationDatabase

SEED = 2018
SAMPLES = 200


@pytest.fixture(scope="module")
def framework():
    return EvaluationFramework(num_samples=SAMPLES, seed=SEED)


@pytest.fixture(scope="module")
def serial_table_iv(framework):
    return framework.evaluate_table_iv()


class TestShardPlan:
    def test_contiguous_and_balanced(self):
        plan = plan_shards(10, 3)
        assert plan == [(0, 4), (4, 7), (7, 10)]
        assert plan_shards(8000, 4) == [
            (0, 2000), (2000, 4000), (4000, 6000), (6000, 8000)
        ]

    def test_more_shards_than_samples(self):
        assert plan_shards(2, 5) == [(0, 1), (1, 2)]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            plan_shards(10, 0)


class TestShardMerge:
    @staticmethod
    def _shard(start, stop, **overrides):
        fields = dict(
            shard_index=start,
            start=start,
            stop=stop,
            raw_cycle_samples=list(range(start, stop)),
            hw_cycles=10 * (stop - start),
            sw_cycles=100,
            icache_accesses=50,
            icache_hits=40,
            dcache_accesses=20,
            dcache_hits=10,
            sim_wall_seconds=0.5,
            check_total=stop - start,
            verified=True,
        )
        fields.update(overrides)
        return ShardCycleReport(**fields)

    def test_merge_is_order_independent(self):
        shards = [self._shard(0, 3), self._shard(3, 7), self._shard(7, 9)]
        merged_forward = merge_shard_reports("s", "software", list(shards))
        random.Random(1).shuffle(shards)
        merged_shuffled = merge_shard_reports("s", "software", shards)
        assert merged_forward == merged_shuffled
        assert merged_forward.per_sample_cycles == [float(i) for i in range(9)]
        assert merged_forward.num_samples == 9
        assert merged_forward.num_shards == 3

    def test_merge_aggregates_cache_stats_and_wall_clock(self):
        merged = merge_shard_reports(
            "s", "software", [self._shard(0, 4), self._shard(4, 8)]
        )
        assert merged.icache_accesses == 100 and merged.icache_hits == 80
        assert merged.icache_hit_rate == 0.8
        assert merged.dcache_hit_rate == 0.5
        assert merged.sim_wall_seconds == 1.0
        assert merged.hw_cycles_total == 80
        assert merged.verification_passed

    def test_shuffled_mixed_cached_fresh_merge_identical(self):
        # The service invariant (docs/service.md): shard reports that have
        # round-tripped through the result cache's JSON store must merge
        # with fresh in-memory reports to a report that is field-for-field
        # identical regardless of arrival order.  Derived rates
        # (icache/dcache hit rates, per-sample cycles) are recomputed from
        # summed integers, so no merge-order dependence may survive.
        import dataclasses

        from repro.core.results import (
            shard_report_from_dict,
            shard_report_to_dict,
        )

        fresh = [self._shard(0, 3), self._shard(5, 9, shard_index=5)]
        cached = [
            shard_report_from_dict(shard_report_to_dict(shard))
            for shard in (self._shard(3, 5, shard_index=3),
                          self._shard(9, 11, shard_index=9))
        ]
        for shard, original in zip(
            cached, (self._shard(3, 5, shard_index=3),
                     self._shard(9, 11, shard_index=9))
        ):
            assert dataclasses.asdict(shard) == dataclasses.asdict(original)

        reference = merge_shard_reports("s", "software", fresh + cached)
        for seed in range(5):
            shards = fresh + cached
            random.Random(seed).shuffle(shards)
            merged = merge_shard_reports("s", "software", shards)
            assert dataclasses.asdict(merged) == dataclasses.asdict(reference)

    def test_merge_rejects_gaps(self):
        with pytest.raises(ConfigurationError):
            merge_shard_reports("s", "software", [self._shard(0, 3), self._shard(4, 6)])

    def test_merge_repetitions_true_division(self):
        merged = merge_shard_reports(
            "s", "software",
            [self._shard(0, 2, raw_cycle_samples=[7, 9], hw_cycles=5)],
            repetitions=2,
        )
        assert merged.per_sample_cycles == [3.5, 4.5]
        assert merged.hw_cycles_total == 2.5  # not floor-divided to 2


class TestCampaignEqualsSerial:
    """The acceptance property: workers=4 over the Table IV mix reproduces
    the serial ``evaluate_table_iv`` rows exactly (same seed, 1 shard/cell)."""

    @pytest.fixture(scope="class")
    def campaign_table_iv(self):
        return run_campaign(
            table_iv_cells(num_samples=SAMPLES, seed=SEED), workers=4
        ).table_iv()

    def test_rows_identical(self, serial_table_iv, campaign_table_iv):
        assert serial_table_iv.rows() == campaign_table_iv.rows()
        assert serial_table_iv.speedups() == campaign_table_iv.speedups()

    def test_per_sample_cycles_identical(self, serial_table_iv, campaign_table_iv):
        for kind, serial in serial_table_iv.reports.items():
            merged = campaign_table_iv.reports[kind]
            assert serial.per_sample_cycles == merged.per_sample_cycles
            assert serial.hw_cycles_total == merged.hw_cycles_total
            assert serial.sw_cycles_total == merged.sw_cycles_total
            assert serial.icache_hit_rate == merged.icache_hit_rate
            assert serial.dcache_hit_rate == merged.dcache_hit_rate
            assert serial.rocc_commands == merged.rocc_commands
            assert serial.instructions_retired == merged.instructions_retired
            assert merged.sim_wall_seconds > 0


class TestCampaignDeterminism:
    def test_worker_count_independence_with_sharding(self):
        cells = table_iv_cells(num_samples=45, seed=11)
        serial = run_campaign(cells, workers=1, shards_per_cell=3)
        parallel = run_campaign(cells, workers=3, shards_per_cell=3)
        assert serial.total_shards == parallel.total_shards == 9
        for a, b in zip(serial.reports, parallel.reports):
            assert a.per_sample_cycles == b.per_sample_cycles
            assert a.hw_cycles_total == b.hw_cycles_total
            assert (a.icache_accesses, a.icache_hits) == (b.icache_accesses, b.icache_hits)
            assert (a.dcache_accesses, a.dcache_hits) == (b.dcache_accesses, b.dcache_hits)
            assert a.num_shards == b.num_shards == 3
            assert b.sim_wall_seconds > 0

    def test_shard_vectors_match_framework(self, framework):
        cell = table_iv_cells(num_samples=SAMPLES, seed=SEED)[0]
        assert cell.generate_vectors() == framework.vectors

    def test_render_campaign(self):
        result = run_campaign(table_iv_cells(num_samples=10, seed=4), workers=1)
        text = render_campaign(result)
        assert "3 cells" in text and "workers" in text

    def test_campaign_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            run_campaign([])

    def test_sweep_style_campaign_rejects_table_iv(self):
        solution = standard_solutions()[SolutionKind.SOFTWARE]
        cells = [
            CampaignCell(solution=solution, num_samples=5, seed=1),
            CampaignCell(solution=solution, num_samples=5, seed=1),
        ]
        result = run_campaign(cells)
        with pytest.raises(ConfigurationError):
            result.table_iv()
        assert len(result.reports) == 2


class TestAccountingRegressions:
    def test_pareto_no_solution_restore_leak(self):
        framework = EvaluationFramework(num_samples=6, seed=3)
        temporary = framework.solutions.pop(SolutionKind.METHOD1_DUMMY)
        analyzer = ParetoAnalyzer(framework)
        analyzer.evaluate_solution(temporary)
        assert SolutionKind.METHOD1_DUMMY not in framework.solutions

    def test_pareto_restores_existing_solution(self):
        framework = EvaluationFramework(num_samples=6, seed=3)
        original = framework.solutions[SolutionKind.SOFTWARE]
        from dataclasses import replace

        analyzer = ParetoAnalyzer(framework)
        analyzer.evaluate_solution(replace(original, name="variant"))
        assert framework.solutions[SolutionKind.SOFTWARE] is original

    def test_pareto_sweep_through_campaign(self):
        framework = EvaluationFramework(num_samples=6, seed=3)
        analyzer = ParetoAnalyzer(framework)
        points = analyzer.evaluate_sweep(
            [framework.solutions[SolutionKind.SOFTWARE],
             framework.solutions[SolutionKind.METHOD1]],
        )
        assert len(points) == 2
        assert points[0].avg_cycles > points[1].avg_cycles  # software slower
        # The sweep never registers temporaries in the framework.
        assert set(framework.solutions) == set(standard_solutions())

    def test_pareto_sweep_grid_over_rocket_configs(self, monkeypatch):
        from repro.core import campaign
        from repro.rocket.config import RocketConfig

        built = []

        def recording(cells, **options):
            built.extend(cells)
            return run_campaign(cells, **options)

        monkeypatch.setattr(campaign, "run_campaign", recording)
        framework = EvaluationFramework(num_samples=4, seed=3, operation="add")
        analyzer = ParetoAnalyzer(framework)
        software = framework.solutions[SolutionKind.SOFTWARE]
        points = analyzer.evaluate_sweep(
            [software],
            rocket_configs=[RocketConfig(), RocketConfig(frequency_hz=500_000_000)],
        )
        assert len(points) == 2
        assert [cell.label for cell in built] == [
            f"{software.name} @ 1000MHz", f"{software.name} @ 500MHz",
        ]
        # The sweep measures the framework's own operation.
        assert {cell.op for cell in built} == {"add"}
        assert points[0].avg_cycles == \
            analyzer.evaluate_solution(software).avg_cycles

    def test_repetitions_no_floor_drift(self):
        framework = EvaluationFramework(
            num_samples=8, seed=5, repetitions=3
        )
        report = framework.run_cycle_accurate(SolutionKind.METHOD1)
        cell = CampaignCell(solution=framework.solutions[SolutionKind.METHOD1],
                            num_samples=8, seed=5, repetitions=3)
        timed = run_solution_shard(cell, framework.vectors).timed_result
        # hw total uses the same true division as the per-sample cycles …
        assert report.hw_cycles_total == timed.hw_cycles / 3
        # … so avg_sw + avg_hw recompose the measured average exactly.
        assert report.avg_sw_cycles + report.avg_hw_cycles == pytest.approx(
            report.avg_total_cycles
        )

    def test_table_iv_subset_without_baseline(self):
        framework = EvaluationFramework(num_samples=6, seed=3)
        report = framework.evaluate_table_iv(kinds=(SolutionKind.METHOD1,))
        assert report.speedups() == {SolutionKind.METHOD1: None}
        rows = report.rows()
        assert len(rows) == 1 and rows[0]["speedup"] is None
        assert "Method-1" in render_table_iv(report)
        with pytest.raises(ConfigurationError):
            report.speedups(strict=True)

    def test_table_iv_empty_report_speedups(self):
        report = TableIVReport(num_samples=0)
        assert report.speedups() == {}
        assert report.rows() == []


class TestCampaignCoverage:
    def test_eight_class_mix_covers_paper_conditions(self):
        """An 8-class campaign mix exercises every result condition the paper
        lists (overflow, underflow, normal/exact, rounding, clamping) plus
        the special-value conditions the tracker distinguishes."""
        vectors = VerificationDatabase(SEED).generate_mix(160, OperandClass.ALL)
        tracker = CoverageTracker()
        tracker.record_all(vectors)
        assert tracker.missing_conditions(CoverageTracker.CONDITIONS) == frozenset()
        assert set(tracker.class_counts) == set(OperandClass.ALL)

    def test_shard_runner_reports_verification(self):
        solution = standard_solutions()[SolutionKind.SOFTWARE]
        vectors = VerificationDatabase(9).generate_mix(5)
        cell = CampaignCell(solution=solution, num_samples=5, seed=9)
        outcome = run_solution_shard(cell, vectors, start=20, shard_index=4)
        report = outcome.shard_report
        assert report.verified and report.check_total == 5
        assert report.check_failed == 0
        assert (report.start, report.stop) == (20, 25)
        assert len(report.raw_cycle_samples) == 5


class TestOperationDifferentialSmoke:
    """Mixed-op differential campaign: the ISSUE acceptance gate in-tree.

    Every operation runs its method-1 kernel and the software kernel in
    cross-model co-simulation with the dual oracle enabled; any divergence,
    oracle split or functional check failure fails the suite.
    """

    @pytest.fixture(scope="class")
    def mixed_op_result(self):
        return run_campaign(operation_cells(
            ("multiply", "add", "fma"),
            formats=("decimal64",),
            num_samples=100,
            seed=SEED,
            differential=True,
        ))

    def test_differential_clean(self, mixed_op_result):
        assert mixed_op_result.differential
        assert mixed_op_result.total_divergences == 0
        assert mixed_op_result.total_oracle_disagreements == 0
        assert mixed_op_result.total_check_failures == 0
        assert mixed_op_result.differential_clean

    def test_all_cells_present_and_sized(self, mixed_op_result):
        ops = {cell.op for cell in mixed_op_result.cells}
        assert ops == {"multiply", "add", "fma"}
        for report in mixed_op_result.reports:
            assert report.num_samples == 100

    def test_per_operation_tables(self, mixed_op_result):
        tables = mixed_op_result.group(("op", "fmt", "workload"))
        assert {key[0] for key in tables} == {"multiply", "add", "fma"}


@pytest.mark.parametrize("cli,flag", [
    ("repro.campaign", "--samples"),
    ("repro.campaign", "--shards-per-cell"),
    ("repro.campaign", "--repetitions"),
    ("repro.fuzz.__main__", "--budget"),
    ("repro.fuzz.__main__", "--batch-size"),
    ("repro.fuzz.__main__", "--max-failures"),
])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_count_flag_below_one_exits_2_naming_the_flag(cli, flag, value, capsys):
    # Exit 1 means "divergence found" for --differential and the fuzzer, so
    # a bad count must be a usage error (argparse's exit 2), not a traceback.
    import importlib

    main = importlib.import_module(cli).main
    with pytest.raises(SystemExit) as raised:
        main([flag, value])
    assert raised.value.code == 2
    assert f"argument {flag}: must be at least 1" in capsys.readouterr().err
