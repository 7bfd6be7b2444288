"""Tests for the test-program generator and the verification layer."""

import pytest

from repro.decnumber.number import DecNumber
from repro.errors import ConfigurationError
from repro.sim.spike import SpikeSimulator
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import (
    HARNESS_SYMBOLS,
    build_test_program,
    generate_vectors,
)
from repro.verification.checker import CheckReport, ResultChecker
from repro.verification.coverage import CoverageTracker
from repro.verification.database import OperandClass, VerificationDatabase, VerificationVector
from repro.verification.reference import GoldenReference


class TestConfig:
    def test_defaults_valid(self):
        config = TestProgramConfig()
        assert config.uses_accelerator
        assert config.precision == "double"

    @pytest.mark.parametrize("kwargs", [
        dict(solution="hardware_only"),
        dict(precision="single"),
        dict(operation="divide"),
        dict(num_samples=0),
        dict(repetitions=0),
        dict(operand_classes=("weird",)),
        dict(operand_classes=(OperandClass.NORMAL, "weird")),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TestProgramConfig(**kwargs)

    def test_quad_precision_is_first_class(self):
        config = TestProgramConfig(precision="quad")
        assert config.fmt == "decimal128"
        assert config.format_spec.precision == 34
        assert TestProgramConfig().fmt == "decimal64"
        assert TestProgramConfig.precision_for_format("decimal128") == "quad"

    def test_with_overrides(self):
        config = TestProgramConfig().with_overrides(num_samples=7)
        assert config.num_samples == 7


class TestDatabase:
    def test_deterministic_for_seed(self):
        first = VerificationDatabase(seed=11).generate_mix(20)
        second = VerificationDatabase(seed=11).generate_mix(20)
        assert [(v.x, v.y) for v in first] == [(v.x, v.y) for v in second]

    def test_seeds_differ(self):
        a = VerificationDatabase(seed=1).generate_mix(20)
        b = VerificationDatabase(seed=2).generate_mix(20)
        assert [(v.x, v.y) for v in a] != [(v.x, v.y) for v in b]

    def test_mix_cycles_through_classes(self):
        vectors = VerificationDatabase(seed=1).generate_mix(10)
        assert [v.operand_class for v in vectors[:5]] == list(OperandClass.TABLE_IV_MIX)

    @pytest.mark.parametrize("operand_class", OperandClass.ALL)
    def test_each_class_produces_vectors(self, operand_class):
        vectors = VerificationDatabase(seed=3).generate(operand_class, 25)
        assert len(vectors) == 25
        assert all(v.operand_class == operand_class for v in vectors)

    def test_class_semantics(self, golden):
        database = VerificationDatabase(seed=9)
        overflow_hits = sum(
            "overflow" in golden.compute(v.x, v.y).flags
            for v in database.generate(OperandClass.OVERFLOW, 40)
        )
        subnormal_hits = sum(
            bool({"subnormal", "underflow"} & golden.compute(v.x, v.y).flags)
            for v in database.generate(OperandClass.UNDERFLOW, 40)
        )
        clamped_hits = sum(
            "clamped" in golden.compute(v.x, v.y).flags
            for v in database.generate(OperandClass.CLAMPING, 40)
        )
        assert overflow_hits > 20
        assert subnormal_hits > 20
        assert clamped_hits > 20

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            VerificationDatabase().generate("bogus", 1)
        with pytest.raises(ConfigurationError):
            VerificationDatabase().generate_mix(4, classes=("bogus",))


class TestGoldenReferenceAndChecker:
    def test_golden_multiply(self, golden):
        result = golden.compute(DecNumber.from_int(25), DecNumber.from_int(4))
        assert result.value == DecNumber(0, 100, 0)
        assert golden.decode(result.encoded) == result.value

    def test_golden_validation(self):
        with pytest.raises(ConfigurationError):
            GoldenReference(operation="divide")
        with pytest.raises(ConfigurationError):
            GoldenReference(precision="half")

    def test_quad_reference_available(self):
        quad = GoldenReference(precision="quad")
        result = quad.compute(DecNumber.from_int(10 ** 20), DecNumber.from_int(3))
        assert result.value.coefficient == 3 * 10 ** 20

    def test_checker_matches_and_mismatches(self, golden):
        checker = ResultChecker(golden)
        vectors = [
            VerificationVector(DecNumber.from_int(2), DecNumber.from_int(3), "normal", 0),
            VerificationVector(DecNumber.from_int(4), DecNumber.from_int(5), "normal", 1),
        ]
        good = golden.compute(vectors[0].x, vectors[0].y).encoded
        bad = golden.compute(DecNumber.from_int(9), DecNumber.from_int(9)).encoded
        report = checker.check_run(vectors, [good, bad])
        assert report.total == 2 and report.passed == 1 and report.failed == 1
        assert "sample 1" in report.failures[0].describe()
        with pytest.raises(Exception):
            report.raise_on_failure()

    def test_nan_results_match_any_nan(self):
        assert ResultChecker.results_match(DecNumber.qnan(1), DecNumber.qnan(999))
        assert not ResultChecker.results_match(DecNumber.qnan(), DecNumber.from_int(0))
        assert ResultChecker.results_match(DecNumber.infinity(1), DecNumber.infinity(1))
        assert not ResultChecker.results_match(DecNumber.infinity(0), DecNumber.infinity(1))

    def test_empty_report_is_not_a_pass(self):
        assert not CheckReport().all_passed


class TestCoverage:
    def test_conditions_recorded(self, golden):
        tracker = CoverageTracker(golden)
        database = VerificationDatabase(seed=6)
        tracker.record_all(database.generate_mix(40, OperandClass.ALL))
        covered = tracker.covered_conditions()
        assert {"inexact", "overflow", "result_infinity", "result_zero"} <= covered
        assert tracker.missing_conditions(["inexact"]) == frozenset()
        assert "vectors: 40" in tracker.summary()


class TestGeneratedPrograms:
    def test_program_symbols_and_operands(self):
        database = VerificationDatabase(seed=2)
        vectors = database.generate_mix(6)
        config = TestProgramConfig(solution=SolutionKind.SOFTWARE, num_samples=6)
        program = build_test_program(config, vectors=vectors)
        for symbol in HARNESS_SYMBOLS.values():
            assert symbol in program.image.symbols
        # The operand words in the image match the golden encodings.
        reference = GoldenReference()
        simulator = SpikeSimulator(program.image)
        operands_address = program.image.symbol("operands")
        for index, vector in enumerate(vectors):
            x_word = simulator.memory.read_dword(operands_address + 16 * index)
            assert x_word == reference.encode_operand(vector.x)

    def test_vector_count_mismatch_rejected(self):
        database = VerificationDatabase(seed=2)
        vectors = database.generate_mix(3)
        config = TestProgramConfig(solution=SolutionKind.SOFTWARE, num_samples=5)
        with pytest.raises(ConfigurationError):
            build_test_program(config, vectors=vectors)

    def test_rebind_rejects_what_build_rejects(self):
        # A longer operand blob would spill into the results buffer: rebind
        # must refuse fma triples for a multiply program, as build does.
        config = TestProgramConfig(solution=SolutionKind.SOFTWARE,
                                   num_samples=4, seed=7)
        program = build_test_program(config)
        triples = generate_vectors(config.with_overrides(operation="fma"))
        with pytest.raises(ConfigurationError, match="vector 0 carries 3"):
            build_test_program(config, vectors=triples)
        with pytest.raises(ConfigurationError, match="vector 0 carries 3"):
            program.rebind(triples)

    def test_repetitions_scale_cycle_counts(self):
        database = VerificationDatabase(seed=8)
        vectors = database.generate_mix(5)
        single = build_test_program(
            TestProgramConfig(solution=SolutionKind.SOFTWARE, num_samples=5,
                              repetitions=1),
            vectors=vectors,
        )
        triple = build_test_program(
            TestProgramConfig(solution=SolutionKind.SOFTWARE, num_samples=5,
                              repetitions=3),
            vectors=vectors,
        )
        result_single = SpikeSimulator(single.image).run()
        result_triple = SpikeSimulator(triple.image).run()
        assert result_triple.instructions_retired > 2.5 * result_single.instructions_retired
        # Results are still correct with repetitions (same final value stored).
        checker = ResultChecker(GoldenReference())
        assert checker.check_run(vectors, triple.read_results(result_triple)).all_passed
