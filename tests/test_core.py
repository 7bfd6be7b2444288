"""Tests for the evaluation framework, host models, Pareto analysis, reporting."""

import pytest

from repro.core.evaluation import EvaluationFramework
from repro.core.host_eval import HostEvaluator
from repro.core.method1 import DummyHardware, FunctionalHardware, Method1HostModel
from repro.core.pareto import ParetoAnalyzer, ParetoPoint
from repro.core.reporting import (
    render_pareto,
    render_table_ii,
    render_table_iii,
    render_table_iv,
    render_table_v,
    render_table_vi,
)
from repro.core.results import SolutionCycleReport
from repro.core.software_baseline import SoftwareBaseline
from repro.core.solution import standard_solutions
from repro.decnumber.formats import DECIMAL64
from repro.decnumber.number import DecNumber
from repro.rocc.decimal_accel import DecimalAcceleratorConfig
from repro.testgen.config import SolutionKind
from repro.verification.database import VerificationDatabase
from repro.verification.reference import GoldenReference


@pytest.fixture(scope="module")
def small_framework():
    """A framework instance small enough for unit tests (shared per module)."""
    return EvaluationFramework(num_samples=15, seed=77)


@pytest.fixture(scope="module")
def table_iv(small_framework):
    return small_framework.evaluate_table_iv()


class TestHostModels:
    def test_method1_functional_matches_golden(self, golden):
        model = Method1HostModel(hardware=FunctionalHardware())
        database = VerificationDatabase(seed=21)
        for vector in database.generate_mix(120, classes=(
            "normal", "rounding", "overflow", "underflow", "clamping", "special",
            "zero", "exact",
        )):
            expected = golden.compute(vector.x, vector.y).value
            actual = model.multiply(vector.x, vector.y)
            if expected.is_nan:
                assert actual.is_nan
            else:
                assert actual == expected, (vector.x, vector.y)

    def test_method1_word_interface(self):
        model = Method1HostModel()
        x = DECIMAL64.encode(DecNumber.from_int(25))
        y = DECIMAL64.encode(DecNumber.from_int(4))
        assert DECIMAL64.decode(model.multiply_words(x, y)) == DecNumber(0, 100, 0)

    def test_dummy_hardware_gives_wrong_but_finite_results(self):
        model = Method1HostModel(hardware=DummyHardware())
        result = model.multiply(DecNumber.from_int(1234567), DecNumber.from_int(89))
        assert result.is_finite
        assert result.coefficient != 1234567 * 89
        assert model.hardware.operations > 20

    def test_software_baseline_matches_golden(self, golden):
        baseline = SoftwareBaseline()
        database = VerificationDatabase(seed=22)
        for vector in database.generate_mix(80):
            expected = golden.compute(vector.x, vector.y)
            assert baseline.multiply_words(
                golden.encode_operand(vector.x), golden.encode_operand(vector.y)
            ) == expected.encoded


class TestSolutions:
    def test_standard_solutions(self):
        solutions = standard_solutions()
        assert set(solutions) == {
            SolutionKind.SOFTWARE, SolutionKind.METHOD1, SolutionKind.METHOD1_DUMMY
        }
        assert solutions[SolutionKind.METHOD1].make_accelerator() is not None
        assert solutions[SolutionKind.SOFTWARE].make_accelerator() is None
        assert solutions[SolutionKind.SOFTWARE].hardware_overhead() is None
        overhead = solutions[SolutionKind.METHOD1].hardware_overhead()
        assert overhead.total_gate_equivalents > 0


class TestEvaluationFramework:
    def test_functional_runs_verify(self, small_framework):
        from repro.core.campaign import CampaignCell
        from repro.core.evaluation import run_solution_shard

        cell = CampaignCell(
            solution=small_framework.solutions[SolutionKind.METHOD1],
            num_samples=small_framework.num_samples,
            seed=small_framework.seed,
        )
        outcome = run_solution_shard(cell, small_framework.vectors)
        assert outcome.check_report.total == small_framework.num_samples
        assert outcome.check_report.all_passed

    @pytest.mark.parametrize("kind", [SolutionKind.SOFTWARE,
                                      SolutionKind.METHOD1])
    def test_span_fault_fails_checked_cell(self, kind, monkeypatch):
        """A compiled timing span that mis-executes must fail a default,
        non-differential cell: its Rocket words are the ones checked."""
        from repro.core.campaign import table_iv_cells
        from repro.core.evaluation import run_solution_shard
        from repro.errors import VerificationError
        from repro.rocket import timing
        from repro.sim.batch import BatchRunner

        render = timing._render

        def faulty_render(pc, d, template):
            # Flip bit 0 of every xor result computed inside a span.
            rendered = render(pc, d, template)
            return f"({rendered}) ^ 1" if d.mnemonic == "xor" else rendered

        monkeypatch.setattr(timing, "_render", faulty_render)
        cell, = table_iv_cells(num_samples=32, kinds=(kind,))
        assert not cell.differential
        with pytest.raises(VerificationError,
                           match=r"failed \(\d+/32\) on samples \[0:32\)"):
            run_solution_shard(cell, cell.generate_vectors(),
                               runner=BatchRunner())

    def test_table_iv_shape(self, table_iv):
        """The paper's qualitative result: the co-design solution is fastest,
        the dummy estimate is slower than the real accelerator but still
        faster than software, and the hardware part is a small fraction."""
        speedups = table_iv.speedups()
        assert speedups[SolutionKind.METHOD1] > 1.5
        assert speedups[SolutionKind.METHOD1_DUMMY] > 1.0
        assert speedups[SolutionKind.METHOD1] > speedups[SolutionKind.METHOD1_DUMMY]
        method1 = table_iv.reports[SolutionKind.METHOD1]
        software = table_iv.reports[SolutionKind.SOFTWARE]
        assert method1.avg_hw_cycles > 0
        assert method1.avg_hw_cycles < method1.avg_sw_cycles
        assert software.avg_hw_cycles == 0
        rows = table_iv.rows()
        assert len(rows) == 3 and rows[0]["speedup"] is not None

    def test_table_iv_verification_gate(self, table_iv):
        for report in table_iv.reports.values():
            assert report.verification_passed

    def test_table_vi_shape(self, small_framework):
        report = small_framework.evaluate_table_vi()
        assert report.speedup(SolutionKind.METHOD1_DUMMY) > 1.0
        assert report.instructions[SolutionKind.SOFTWARE] > 0

    def test_table_v_shape(self):
        evaluator = HostEvaluator(num_samples=150, seed=5)
        report = evaluator.evaluate()
        assert report.rows[SolutionKind.SOFTWARE].seconds > 0
        assert report.speedup(SolutionKind.METHOD1_DUMMY) > 0.5

    def test_hardware_overhead_report(self, small_framework):
        report = small_framework.hardware_overhead()
        assert report.total_gate_equivalents > 1000


class TestResultsAndPareto:
    def test_cycle_report_statistics(self):
        report = SolutionCycleReport(
            solution_name="x", solution_kind="software", num_samples=4,
            per_sample_cycles=[100, 110, 90, 100], hw_cycles_total=40,
        )
        assert report.avg_total_cycles == 100
        assert report.avg_hw_cycles == 10
        assert report.avg_sw_cycles == 90
        assert report.stdev_cycles > 0
        baseline = SolutionCycleReport(
            solution_name="b", solution_kind="software", num_samples=4,
            per_sample_cycles=[200, 200, 200, 200],
        )
        assert report.speedup_over(baseline) == 2.0

    def test_pareto_dominance(self):
        fast_small = ParetoPoint("a", avg_cycles=100, gate_equivalents=10)
        slow_big = ParetoPoint("b", avg_cycles=200, gate_equivalents=20)
        slow_small = ParetoPoint("c", avg_cycles=200, gate_equivalents=5)
        assert fast_small.dominates(slow_big)
        assert not fast_small.dominates(slow_small)
        assert not slow_small.dominates(fast_small)

    def test_pareto_analyzer_standard_points(self):
        framework = EvaluationFramework(num_samples=6, seed=3)
        analyzer = ParetoAnalyzer(framework)
        points = analyzer.evaluate_standard_points()
        assert len(points) == 2
        frontier = analyzer.frontier()
        # Software (0 gates, slow) and Method-1 (gates, fast) are both Pareto points.
        assert len(frontier) == 2

    def test_pareto_with_custom_accelerator_config(self):
        framework = EvaluationFramework(num_samples=6, seed=3)
        analyzer = ParetoAnalyzer(framework)
        base = framework.solutions[SolutionKind.METHOD1]
        from dataclasses import replace

        wide = replace(
            base,
            name="Method-1 (wide adder)",
            accelerator_config=DecimalAcceleratorConfig(adder_width_digits=32),
        )
        point = analyzer.evaluate_solution(wide)
        assert point.gate_equivalents > 0


class TestReporting:
    def test_table_ii_lists_all_functions(self):
        text = render_table_ii()
        for name in ("WR", "RD", "DEC_ADD", "DEC_ACCUM", "DEC_MUL", "CLR_ALL"):
            assert name in text

    def test_table_iii_contains_opcode_column(self):
        text = render_table_iii()
        assert "0001011" in text  # the custom-0 opcode
        assert "DEC_ADD" in text

    def test_render_table_iv(self, table_iv):
        text = render_table_iv(table_iv)
        assert "Method-1 [9]" in text and "Software [2]" in text
        assert "(paper)" in text
        assert "x" in text  # a speedup value

    def test_render_table_v_and_vi(self, small_framework):
        text_v = render_table_v(HostEvaluator(num_samples=40).evaluate())
        assert "Intel i7" in text_v
        text_vi = render_table_vi(small_framework.evaluate_table_vi())
        assert "AtomicSimpleCPU" in text_vi

    def test_render_pareto(self):
        points = [
            ParetoPoint("soft", 2000, 0.0),
            ParetoPoint("m1", 700, 12000.0),
            ParetoPoint("bad", 2500, 20000.0),
        ]
        text = render_pareto(points)
        assert "yes" in text and "no" in text
