"""End-to-end tests of the format-generic decimal pipeline (decimal128).

The decimal64 pipeline is pinned by the rest of the suite; these tests prove
the same layers — kernels, accelerator, testgen harness, database,
workloads, campaign engine, CLI and reporting — generalise to decimal128
through the :class:`~repro.decnumber.formats.FormatSpec` axis.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import CampaignCell, grid_cells, run_campaign
from repro.core.solution import CoDesignSolution, standard_solutions
from repro.decnumber.formats import DECIMAL128, get_format, resolve_format_name
from repro.decnumber.number import DecNumber
from repro.errors import AcceleratorError, ConfigurationError, DecimalError
from repro.rocc.decimal_accel import (
    ACC_WORD_SELECTORS,
    DecimalAccelerator,
    DecimalAcceleratorConfig,
    acc_word_selector,
    regfile_word_selector,
)
from repro.sim.spike import SpikeSimulator
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program, draw_vectors
from repro.verification.checker import ResultChecker
from repro.verification.database import (
    OperandClass,
    VerificationDatabase,
    VerificationVector,
)
from repro.verification.reference import GoldenReference


def _check_kernel(kind, vectors, fmt="decimal128"):
    config = TestProgramConfig(
        solution=kind,
        precision=TestProgramConfig.precision_for_format(fmt),
        num_samples=len(vectors),
    )
    program = build_test_program(config, vectors=vectors)
    solution = standard_solutions()[kind]
    result = SpikeSimulator(
        program.image, accelerator=solution.make_accelerator(fmt)
    ).run()
    assert result.exit_code == 0
    report = ResultChecker(GoldenReference(precision=fmt)).check_run(
        vectors, program.read_results(result)
    )
    detail = "\n".join(f.describe() for f in report.failures[:5])
    assert report.all_passed, f"{kind}: {report.failed} mismatches\n{detail}"
    return program, result


VERIFIABLE = [SolutionKind.SOFTWARE, SolutionKind.METHOD1]


# ----------------------------------------------------------------- kernels
class TestDecimal128Kernels:
    @pytest.mark.parametrize("solution", VERIFIABLE)
    @pytest.mark.parametrize("operand_class", OperandClass.ALL)
    def test_class_correctness(self, solution, operand_class):
        database = VerificationDatabase(
            seed=hash((solution, operand_class)) & 0xFFFF, fmt="decimal128"
        )
        vectors = database.generate(operand_class, 6)
        _check_kernel(solution, vectors)

    @pytest.mark.parametrize("solution", VERIFIABLE)
    def test_directed_edges(self, solution):
        nines = "9" * 34
        pairs = [
            ("1", "1"),
            ("0", "123.45"),
            ("-0", "7E+6000"),
            (nines, nines),                                  # maximal carry
            (f"{nines}E+6111", "10"),                        # overflow to inf
            ("1E-6176", "1E-10"),                            # underflow to zero
            ("5E-6176", "0.1"),                              # half ulp tie
            ("15E-6176", "0.1"),                             # subnormal round up
            ("123456789E-6176", "0.001"),                    # subnormal digits
            ("7E+6000", "8E+140"),                           # fold-down clamp
            ("2", "3E+6110"),                                # clamp by one digit
            ("1000000000000000000000000000000005", "1" + "0" * 31),
            ("1000000000000000000000000000000015", "1" + "0" * 31),
            ("Infinity", "-2"),
            ("-Infinity", "-Infinity"),
            ("Infinity", "0"),
            ("NaN123", "5"),
            ("sNaN7", "Infinity"),
            ("0E+1000", "0E-2000"),
        ]
        vectors = [
            VerificationVector(
                DecNumber.from_string(x), DecNumber.from_string(y),
                "directed", index,
            )
            for index, (x, y) in enumerate(pairs)
        ]
        _check_kernel(solution, vectors)

    def test_dummy_variant_runs_but_is_not_verifiable(self):
        vectors = VerificationDatabase(seed=3, fmt="decimal128").generate_mix(12)
        config = TestProgramConfig(
            solution=SolutionKind.METHOD1_DUMMY, precision="quad",
            num_samples=len(vectors),
        )
        program = build_test_program(config, vectors=vectors)
        result = SpikeSimulator(program.image).run()
        assert result.exit_code == 0
        report = ResultChecker(GoldenReference(precision="quad")).check_run(
            vectors, program.read_results(result)
        )
        assert report.total == 12
        assert report.failed > 0       # fixed-return dummies: timing only

    def test_two_word_results_read_back(self):
        vectors = VerificationDatabase(seed=9, fmt="decimal128").generate_mix(5)
        program, result = _check_kernel(SolutionKind.SOFTWARE, vectors)
        assert program.words_per_value == 2
        words = program.read_results(result)
        assert len(words) == 5
        assert any(word >> 64 for word in words)  # high words are real
        cycles = program.read_cycle_samples(result)
        assert len(cycles) == 5
        assert sum(cycles) == program.read_total_cycles(result)


# ------------------------------------------------------------- accelerator
class TestWideAccelerator:
    def test_for_format_decimal64_is_the_historic_default(self):
        assert DecimalAcceleratorConfig.for_format("decimal64") == (
            DecimalAcceleratorConfig()
        )

    def test_for_format_decimal128_scales_datapath(self):
        config = DecimalAcceleratorConfig.for_format("decimal128")
        assert config.digits == 34
        assert config.accumulator_digits == 68
        assert config.register_width_digits == 38
        assert config.accumulator_words == 5
        assert config.register_words == 3
        small = DecimalAcceleratorConfig().area_report()
        large = config.area_report()
        assert large.total_gate_equivalents > small.total_gate_equivalents
        assert large.total_flip_flops > small.total_flip_flops

    def test_format_scaled_validation(self):
        with pytest.raises(AcceleratorError):
            DecimalAcceleratorConfig(digits=34, register_width_digits=34,
                                     accumulator_digits=68)
        with pytest.raises(AcceleratorError):
            DecimalAcceleratorConfig(digits=34, register_width_digits=38,
                                     accumulator_digits=64)

    def test_lane_writes_and_word_reads(self):
        accel = DecimalAccelerator(DecimalAcceleratorConfig.for_format("decimal128"))
        lanes = (0x1111, 0x2222, 0x3333)
        from repro.isa.rocc import DecimalFunct

        def execute(funct7=DecimalFunct.WR, rd=0, rs2=0, rs1_value=0,
                    rs2_value=0, xd=False, xs1=False, xs2=False):
            return accel.execute(funct7, rd, 0, rs2, rs1_value, rs2_value,
                                 xd, xs1, xs2, None)

        for lane, value in enumerate(lanes):
            execute(rd=lane, rs1_value=value, rs2=4, xs1=True)
        expected = lanes[0] | (lanes[1] << 64) | (lanes[2] << 128)
        assert accel.regfile.read(4) == expected
        # Lane-0 write replaces the whole register (decimal64 semantics).
        execute(rd=0, rs1_value=0x9, rs2=4, xs1=True)
        assert accel.regfile.read(4) == 0x9
        # Register-file word lanes read back through value selectors.
        accel.regfile.write(4, expected)
        for lane, value in enumerate(lanes):
            _, read_back, _ = execute(
                funct7=DecimalFunct.RD, rd=1, xd=True, xs2=True,
                rs2_value=regfile_word_selector(4, lane),
            )
            assert read_back == value

    def test_accumulator_word_selectors(self):
        accel = DecimalAccelerator(DecimalAcceleratorConfig.for_format("decimal128"))
        accel.accumulator = int("9" * 68, 16)  # 272 bits of nibbles
        from repro.isa.rocc import DecimalFunct

        for word in range(5):
            selector = acc_word_selector(word)
            _, value, _ = accel.execute(
                funct7=DecimalFunct.RD, rd=1, rs1=0, rs2=selector,
                rs1_value=0, rs2_value=0, xd=True, xs1=False, xs2=False,
                memory=None,
            )
            assert value == (accel.accumulator >> (64 * word)) & (
                (1 << 64) - 1
            )
        assert ACC_WORD_SELECTORS[0] == 16 and ACC_WORD_SELECTORS[1] == 17
        with pytest.raises(AcceleratorError):
            acc_word_selector(len(ACC_WORD_SELECTORS))


# ------------------------------------------------------ solutions (satellite)
class TestSolutionOverhead:
    def test_hardware_overhead_does_not_instantiate_accelerator(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise AssertionError("hardware_overhead built a full accelerator")

        monkeypatch.setattr(DecimalAccelerator, "__init__", boom)
        solution = standard_solutions()[SolutionKind.METHOD1]
        report = solution.hardware_overhead()
        assert report.total_gate_equivalents > 0

    def test_overhead_matches_live_accelerator_report(self):
        solution = standard_solutions()[SolutionKind.METHOD1]
        for fmt in ("decimal64", "decimal128"):
            from_config = solution.hardware_overhead(fmt)
            live = solution.make_accelerator(fmt).area_report()
            assert [
                (c.name, c.gate_equivalents, c.flip_flops)
                for c in from_config.components
            ] == [
                (c.name, c.gate_equivalents, c.flip_flops)
                for c in live.components
            ]

    def test_pinned_narrow_config_rejected_for_wide_format(self):
        pinned = CoDesignSolution(
            name="narrow", kind=SolutionKind.METHOD1, uses_accelerator=True,
            accelerator_config=DecimalAcceleratorConfig(),
        )
        assert pinned.make_accelerator("decimal64") is not None
        with pytest.raises(ConfigurationError, match="too narrow"):
            pinned.make_accelerator("decimal128")
        with pytest.raises(ConfigurationError, match="too narrow"):
            pinned.hardware_overhead("decimal128")

    def test_accelerator_config_default_is_typed_optional(self):
        import typing

        hints = typing.get_type_hints(CoDesignSolution)
        assert hints["accelerator_config"] == typing.Optional[
            DecimalAcceleratorConfig
        ]
        software = standard_solutions()[SolutionKind.SOFTWARE]
        assert software.hardware_overhead() is None
        assert software.make_accelerator("decimal128") is None


# ------------------------------------------------------- database + workloads
class TestFormatDistributions:
    def test_decimal128_class_semantics(self):
        reference = GoldenReference(precision="decimal128")
        database = VerificationDatabase(seed=61, fmt="decimal128")
        for vector in database.generate(OperandClass.OVERFLOW, 40):
            assert "overflow" in reference.compute(vector.x, vector.y).flags
        subnormal = zero = 0
        for vector in database.generate(OperandClass.UNDERFLOW, 40):
            golden = reference.compute(vector.x, vector.y)
            assert "underflow" in golden.flags
            if golden.value.is_zero:
                zero += 1
            elif "subnormal" in golden.flags:
                subnormal += 1
        assert subnormal >= 13 and zero >= 13
        for vector in database.generate(OperandClass.CLAMPING, 40):
            flags = reference.compute(vector.x, vector.y).flags
            assert "clamped" in flags and "overflow" not in flags

    def test_all_decimal128_operands_encode_exactly(self):
        reference = GoldenReference(precision="decimal128")
        database = VerificationDatabase(seed=62, fmt="decimal128")
        for vector in database.generate_mix(120, OperandClass.ALL):
            for operand in (vector.x, vector.y):
                decoded = reference.decode(reference.encode_operand(operand))
                if operand.is_finite:
                    assert (decoded.sign, decoded.coefficient,
                            decoded.exponent) == (
                        operand.sign, operand.coefficient, operand.exponent,
                    )
                else:
                    assert decoded.kind == operand.kind

    def test_unknown_format_rejected(self):
        with pytest.raises(DecimalError, match="decimal32"):
            VerificationDatabase(seed=1, fmt="decimal32")
        assert resolve_format_name("quad") == "decimal128"
        assert get_format("double").name == "decimal64"

    def test_workload_format_gating(self):
        from repro.workloads import Workload, get_workload, workload_vectors

        class LegacyOnly(Workload):
            name = "legacy-only-test"

            def pair(self, rng, index):
                return DecNumber(0, 1, 0), DecNumber(0, 2, 0)

        legacy = LegacyOnly()
        assert legacy.formats == ("decimal64",)
        assert workload_vectors(legacy, 3, 1, "decimal64")
        with pytest.raises(ConfigurationError, match="does not support"):
            workload_vectors(legacy, 3, 1, "decimal128")
        for name in ("paper-uniform", "carry-stress", "special-values"):
            workload = get_workload(name)
            assert workload.supports_format("decimal128")

    def test_carry_stress_scales_digits_with_format(self):
        from repro.workloads import get_workload

        workload = get_workload("carry-stress")
        wide = workload.vectors(64, seed=5, fmt="decimal128")
        assert max(v.x.digits for v in wide) > 16
        assert all(
            str(v.x.coefficient).strip("9") == "" for v in wide
        )
        narrow = workload.vectors(64, seed=5)
        assert max(v.x.digits for v in narrow) <= 16

    def test_draw_vectors_format_threading(self):
        default = draw_vectors(10, 2018)
        wide = draw_vectors(10, 2018, fmt="decimal128")
        assert [v.operand_class for v in default] == [
            v.operand_class for v in wide
        ]
        assert [(v.x, v.y) for v in default] != [(v.x, v.y) for v in wide]


# --------------------------------------------------------- campaign + CLI
class TestFormatCampaign:
    def test_cell_label_and_validation(self):
        solution = standard_solutions()[SolutionKind.METHOD1]
        cell = CampaignCell(solution=solution, num_samples=4, fmt="quad")
        assert cell.fmt == "decimal128"
        assert "[decimal128]" in cell.label
        # Config-layer classes keep the ConfigurationError contract even
        # though the format registry itself raises DecimalError.
        with pytest.raises(ConfigurationError):
            CampaignCell(solution=solution, num_samples=4, fmt="decimal999")

    def test_cell_rejects_unsupported_workload_format(self):
        from repro.workloads import Workload, register, unregister

        class D64Only(Workload):
            name = "d64-only-cell-test"

            def pair(self, rng, index):
                return DecNumber(0, 1, 0), DecNumber(0, 2, 0)

        register(D64Only(), replace=True)
        try:
            solution = standard_solutions()[SolutionKind.METHOD1]
            with pytest.raises(ConfigurationError, match="does not support"):
                CampaignCell(solution=solution, num_samples=4,
                             workload="d64-only-cell-test", fmt="decimal128")
        finally:
            unregister("d64-only-cell-test")

    def test_format_cells_grid_and_run(self):
        cells = grid_cells(
            formats=["decimal64", "decimal128"], num_samples=4,
            solutions=(SolutionKind.METHOD1, SolutionKind.SOFTWARE),
        )
        assert len(cells) == 4
        assert {cell.fmt for cell in cells} == {"decimal64", "decimal128"}
        result = run_campaign(cells, workers=1)
        assert tuple(result.group(("fmt",))) == (
            ("decimal64",), ("decimal128",)
        )
        grouped = result.group(("fmt", "workload"))
        assert set(grouped) == {("decimal64", None), ("decimal128", None)}
        for table in grouped.values():
            speedup = table.speedups()[SolutionKind.METHOD1]
            assert speedup and speedup > 1.0
        with pytest.raises(ConfigurationError, match="formats"):
            result.group(("workload",))
        with pytest.raises(ConfigurationError, match="formats"):
            result.report_for(SolutionKind.METHOD1)
        report = result.report_for(SolutionKind.METHOD1, fmt="decimal128")
        assert report.fmt == "decimal128"
        summary = result.to_summary()
        assert {cell["fmt"] for cell in summary["cells"]} == {
            "decimal64", "decimal128"
        }

    def test_differential_format_cell_is_clean(self):
        cells = grid_cells(
            formats=["decimal128"], num_samples=4,
            solutions=(SolutionKind.METHOD1,),
            workloads=["carry-stress"], differential=True,
        )
        result = run_campaign(cells, workers=1)
        assert result.differential
        assert result.differential_clean
        assert result.reports[0].models == ("spike", "rocket", "gem5")

    def test_format_cells_skips_incompatible_workloads(self):
        from repro.workloads import Workload, register, unregister

        class D64Grid(Workload):
            name = "d64-grid-test"

            def pair(self, rng, index):
                return DecNumber(0, 3, 0), DecNumber(0, 4, 0)

        register(D64Grid(), replace=True)
        try:
            cells = grid_cells(
                formats=["decimal64", "decimal128"], num_samples=4,
                solutions=(SolutionKind.METHOD1,),
                workloads=["d64-grid-test", "carry-stress"],
            )
            labels = [cell.label for cell in cells]
            assert len(cells) == 3  # d64 x 2 workloads + d128 x carry-stress
            assert not any(
                "d64-grid-test" in label and "decimal128" in label
                for label in labels
            )
            with pytest.raises(ConfigurationError, match="supports none"):
                grid_cells(formats=["decimal128"], num_samples=4,
                           workloads=["d64-grid-test"])
        finally:
            unregister("d64-grid-test")

    def test_cli_format_parsing_and_rendering(self, capsys):
        from repro.campaign import main

        assert main([
            "--samples", "4", "--workers", "1",
            "--format", "decimal64,decimal128",
            "--kinds", "method1,software",
        ]) == 0
        out = capsys.readouterr().out
        assert "Format: decimal64" in out
        assert "Format: decimal128" in out
        assert "Cross-format comparison" in out
        # Paper reference rows only belong next to the paper's experiment.
        d64_block, d128_block = out.split("Format: decimal128")
        assert "(paper)" in d64_block
        assert "(paper)" not in d128_block.split("Cross-format")[0]

    def test_cli_rejects_bad_formats(self):
        from repro.campaign import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--format", "decimal32"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--format", "decimal64,decimal64"])


# ------------------------------------------------------------------- fuzz
class TestFormatFuzz:
    def test_fuzz_config_resolves_aliases(self):
        from repro.fuzz.engine import FuzzConfig

        assert FuzzConfig(fmt="quad").fmt == "decimal128"
        with pytest.raises(ConfigurationError):
            FuzzConfig(fmt="decimal32")

    def test_mutators_stay_in_format_envelope(self):
        import random as _random

        from repro.fuzz.mutate import mutators_for_format

        spec = DECIMAL128
        rng = _random.Random(5)
        x = DecNumber(0, 123456, -10)
        y = DecNumber(1, 987, 20)
        for mutator in mutators_for_format("decimal128"):
            for _ in range(40):
                x, y = mutator(rng, x, y)
                for operand in (x, y):
                    if operand.is_finite:
                        assert operand.coefficient <= spec.max_coefficient
                        assert spec.etiny <= operand.exponent <= spec.etop
                    elif operand.is_nan:
                        assert operand.coefficient <= spec.max_payload

    def test_decimal128_fuzz_campaign_smoke(self):
        from repro.fuzz.engine import FuzzCampaign, FuzzConfig

        report = FuzzCampaign(FuzzConfig(
            seed=11, budget=24, batch_size=12, fmt="decimal128",
        )).run()
        assert report.ok, report.describe()
        assert report.vectors_run == 24
        assert "decimal128" in report.describe()
        assert report.to_summary()["fmt"] == "decimal128"
