"""Workload registry: determinism, legacy bit-identity, end-to-end runs."""

import pytest

from repro.core.campaign import (
    CampaignCell,
    grid_cells,
    run_campaign,
    table_iv_cells,
)
from repro.core.evaluation import EvaluationFramework, run_solution_shard
from repro.core.reporting import render_matrix, render_tables
from repro.core.solution import standard_solutions
from repro.errors import ConfigurationError
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import generate_vectors
from repro.verification.database import VerificationDatabase
from repro.verification.reference import GoldenReference
from repro.workloads import (
    BUILTIN_WORKLOADS,
    Workload,
    get_workload,
    register,
    unregister,
    workload_names,
    workload_vectors,
)

SEED = 2018
SAMPLES = 200

EXPECTED_BUILTINS = {
    "paper-uniform", "telco-billing", "currency-fx", "tax-ladder",
    "sparse-digits", "carry-stress", "special-values", "mac-chain",
}


class TestRegistry:
    def test_builtins_registered(self):
        assert EXPECTED_BUILTINS <= set(workload_names())
        assert len(BUILTIN_WORKLOADS) == 8
        for workload in BUILTIN_WORKLOADS:
            assert get_workload(workload.name) is workload
            assert workload.description

    def test_unknown_name_raises_with_suggestion(self):
        with pytest.raises(ConfigurationError, match="telco-billing"):
            get_workload("telco-biling")
        with pytest.raises(ConfigurationError, match="registered:"):
            get_workload("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        class Dup(Workload):
            name = "paper-uniform"

        with pytest.raises(ConfigurationError, match="already registered"):
            register(Dup())

    def test_register_and_unregister_custom(self):
        class Tiny(Workload):
            name = "tiny-test-workload"
            description = "one fixed pair"

            def pair(self, rng, index):
                from repro.decnumber.number import DecNumber

                return DecNumber(0, 25, 0), DecNumber(0, 4, 0)

        try:
            register(Tiny())
            vectors = get_workload("tiny-test-workload").vectors(3, seed=1)
            assert len(vectors) == 3
            assert vectors[0].operand_class == "tiny-test-workload"
        finally:
            unregister("tiny-test-workload")
        with pytest.raises(ConfigurationError):
            get_workload("tiny-test-workload")

    def test_config_objects_validate_workload(self):
        # The cell validates eagerly (it is built in the parent, where the
        # registry holds any user-registered workload) …
        with pytest.raises(ConfigurationError):
            CampaignCell(
                solution=standard_solutions()[SolutionKind.SOFTWARE],
                num_samples=4,
                workload="no-such-scenario",
            )
        # … while the program config resolves the name only when vectors
        # are actually generated from it.
        config = TestProgramConfig(num_samples=4, workload="no-such-scenario")
        with pytest.raises(ConfigurationError):
            generate_vectors(config)

    def test_worker_side_config_carries_unregistered_workload(self):
        """A shard worker builds its TestProgramConfig from a workload name
        that may only be registered in the parent (spawn/forkserver start
        methods).  The vectors ship with the task, so the run must succeed
        with the name kept as provenance."""
        solution = standard_solutions()[SolutionKind.SOFTWARE]
        vectors = get_workload("telco-billing").vectors(4, seed=3)
        outcome = run_solution_shard(
            solution, vectors, seed=3, workload="only-registered-in-parent"
        )
        assert outcome.shard_report.check_failed == 0
        assert outcome.program.config.workload == "only-registered-in-parent"

    def test_describe_metadata(self):
        info = get_workload("carry-stress").describe()
        assert info["name"] == "carry-stress"
        assert "stress" in info["tags"]


class TestDeterminismAndEncodability:
    @pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS))
    def test_same_seed_same_vectors(self, name):
        # Operation-only workloads (mac-chain) draw under their declared
        # operation; everything else keeps the legacy multiply call shape.
        workload = get_workload(name)
        operation = workload.operations[0]
        first = workload_vectors(workload, 40, seed=9, operation=operation)
        second = workload_vectors(workload, 40, seed=9, operation=operation)
        assert first == second
        assert [vector.index for vector in first] == list(range(40))

    @pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS))
    def test_different_seed_different_vectors(self, name):
        workload = get_workload(name)
        operation = workload.operations[0]
        assert (workload_vectors(workload, 40, seed=9, operation=operation)
                != workload_vectors(workload, 40, seed=10,
                                    operation=operation))

    @pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS))
    def test_operands_are_decimal64_exact(self, name):
        """Every operand must round-trip through the interchange encoding,
        otherwise the kernel would compute on a different value than the
        golden model."""
        reference = GoldenReference()
        workload = get_workload(name)
        vectors = workload_vectors(workload, 60, seed=5,
                                   operation=workload.operations[0])
        for vector in vectors:
            operands = list(vector.operands)
            for operand in operands:
                decoded = reference.decode(reference.encode_operand(operand))
                if operand.is_finite:
                    assert decoded == operand
                else:
                    assert decoded.kind == operand.kind

    def test_non_paper_vectors_tagged_with_workload_name(self):
        vectors = get_workload("currency-fx").vectors(5, seed=2)
        assert {vector.operand_class for vector in vectors} == {"currency-fx"}

    def test_oracle_hook_matches_golden_reference(self):
        reference = GoldenReference()
        workload = get_workload("telco-billing")
        for vector in workload.vectors(10, seed=3):
            expected = workload.expected(vector.x, vector.y)
            golden = reference.compute(vector.x, vector.y)
            assert expected.encoded == golden.encoded

    def test_custom_oracle_drives_functional_verification(self):
        """run_solution_shard judges results with the workload's expected()
        override, not unconditionally with the golden library."""
        from repro.errors import VerificationError

        class WrongOracle(Workload):
            name = "wrong-oracle-workload"
            description = "oracle that contradicts every kernel result"

            def pair(self, rng, index):
                from repro.decnumber.number import DecNumber

                return (DecNumber(0, rng.randint(1, 99), 0),
                        DecNumber(0, rng.randint(1, 99), 0))

            def expected(self, x, y):
                from repro.decnumber.number import DecNumber
                from repro.verification.reference import GoldenResult

                wrong = DecNumber(0, 123_456_789, 42)
                return GoldenResult(
                    value=wrong,
                    encoded=self._reference().encode_operand(wrong),
                    flags=frozenset(),
                )

        solution = standard_solutions()[SolutionKind.SOFTWARE]
        try:
            register(WrongOracle())
            vectors = get_workload("wrong-oracle-workload").vectors(3, seed=1)
            with pytest.raises(VerificationError):
                run_solution_shard(solution, vectors, seed=1,
                                   workload="wrong-oracle-workload")
        finally:
            unregister("wrong-oracle-workload")


class TestPaperUniformBitIdentity:
    """The acceptance property: naming the paper's mix as a workload changes
    nothing — vectors, generator output and merged campaign reports are all
    bit-identical to the legacy class-mix path at the same seed."""

    def test_vectors_match_legacy_database(self):
        workload = get_workload("paper-uniform")
        legacy = VerificationDatabase(SEED).generate_mix(SAMPLES)
        assert workload.vectors(SAMPLES, SEED) == legacy

    def test_generate_vectors_workload_config(self):
        legacy = generate_vectors(
            TestProgramConfig(num_samples=50, seed=SEED)
        )
        via_workload = generate_vectors(
            TestProgramConfig(num_samples=50, seed=SEED,
                              workload="paper-uniform")
        )
        assert legacy == via_workload

    def test_framework_workload_axis(self):
        legacy = EvaluationFramework(num_samples=30, seed=SEED)
        scenario = EvaluationFramework(num_samples=30, seed=SEED,
                                       workload="paper-uniform")
        assert legacy.vectors == scenario.vectors

    def test_serial_vs_sharded_campaign_bit_identical(self):
        """Serial legacy path vs the sharded --workload paper-uniform
        campaign at 200 samples: merged reports match bit for bit."""
        legacy = EvaluationFramework(
            num_samples=SAMPLES, seed=SEED
        ).evaluate_table_iv()
        campaign = run_campaign(
            table_iv_cells(num_samples=SAMPLES, seed=SEED,
                           workload="paper-uniform"),
            workers=2,
        ).table_iv()
        assert legacy.rows() == campaign.rows()
        for kind, serial in legacy.reports.items():
            merged = campaign.reports[kind]
            assert serial.per_sample_cycles == merged.per_sample_cycles
            assert serial.hw_cycles_total == merged.hw_cycles_total
            assert serial.icache_hit_rate == merged.icache_hit_rate
            assert serial.dcache_hit_rate == merged.dcache_hit_rate
            assert serial.rocc_commands == merged.rocc_commands


class TestEndToEndSmoke:
    @pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS))
    def test_cycle_accurate_run_per_workload(self, name):
        """Each built-in runs the full pipeline: build + spike verification
        against the golden model + Rocket cycle measurement."""
        solution = standard_solutions()[SolutionKind.METHOD1]
        workload = get_workload(name)
        operation = workload.operations[0]
        vectors = workload_vectors(workload, 6, seed=7, operation=operation)
        outcome = run_solution_shard(
            solution, vectors, seed=7, workload=name, operation=operation
        )
        report = outcome.shard_report
        assert report.verified and report.check_failed == 0
        assert len(report.raw_cycle_samples) == 6
        assert all(count > 0 for count in report.raw_cycle_samples)
        assert report.rocc_commands > 0


class TestWorkloadCampaigns:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(grid_cells(
            workloads=["telco-billing", "carry-stress"],
            num_samples=8,
            solutions=(SolutionKind.METHOD1, SolutionKind.SOFTWARE),
            seed=5,
        ))

    def test_cell_grid(self, result):
        assert len(result.cells) == 4
        assert tuple(result.group(("workload",))) == (
            ("telco-billing",), ("carry-stress",)
        )
        labels = [cell.label for cell in result.cells]
        assert "method1 @ telco-billing" in labels

    def test_table_iv_by_workload(self, result):
        tables = result.group(("workload",))
        assert set(tables) == {("telco-billing",), ("carry-stress",)}
        for table in tables.values():
            assert set(table.reports) == {
                SolutionKind.METHOD1, SolutionKind.SOFTWARE
            }
            speedup = table.speedups()[SolutionKind.METHOD1]
            assert speedup and speedup > 1.0

    def test_table_iv_rejects_multi_workload(self, result):
        with pytest.raises(ConfigurationError, match="group"):
            result.table_iv()

    def test_rendering(self, result):
        tables_text = render_tables(result, ("workload",))
        assert "Workload: telco-billing" in tables_text
        assert "Workload: carry-stress" in tables_text
        matrix = render_matrix(result, ("workload",))
        assert "Cross-workload comparison" in matrix
        assert "telco-billing" in matrix and "carry-stress" in matrix

    def test_summary_records_workload(self, result):
        summary = result.to_summary()
        assert summary["cells"][0]["workload"] == "telco-billing"
        assert summary["cells"][-1]["workload"] == "carry-stress"

    def test_workload_cells_requires_a_workload(self):
        with pytest.raises(ConfigurationError):
            grid_cells(workloads=[])

    def test_report_for_workload(self, result):
        telco = result.report_for(SolutionKind.METHOD1, "telco-billing")
        carry = result.report_for(SolutionKind.METHOD1, "carry-stress")
        assert telco is not carry
        # Without a workload the lookup is ambiguous here — refuse rather
        # than silently return the first workload's report.
        with pytest.raises(ConfigurationError, match="several workloads"):
            result.report_for(SolutionKind.METHOD1)
        with pytest.raises(ConfigurationError, match="no campaign cell"):
            result.report_for(SolutionKind.METHOD1, "sparse-digits")

    def test_paper_rows_follow_the_one_rule(self):
        # The paper's rows render under the paper-uniform group of a
        # multi-workload campaign, and under no other workload.
        result = run_campaign(grid_cells(
            workloads=["paper-uniform", "telco-billing"], num_samples=4,
            solutions=(SolutionKind.METHOD1, SolutionKind.SOFTWARE),
        ))
        paper, telco = render_tables(result, ("workload",)).split("\n\n")
        assert paper.startswith("Workload: paper-uniform")
        assert paper.count("(paper)") == 2
        assert telco.startswith("Workload: telco-billing")
        assert "(paper)" not in telco

    def test_pareto_sweep_uses_framework_workload(self):
        """evaluate_sweep must measure the framework's workload vectors,
        not silently fall back to the legacy class mix."""
        from repro.core.pareto import ParetoAnalyzer

        framework = EvaluationFramework(num_samples=6, seed=3,
                                        workload="carry-stress")
        analyzer = ParetoAnalyzer(framework)
        solution = framework.solutions[SolutionKind.SOFTWARE]
        serial_point = analyzer.evaluate_solution(solution)
        sweep_point = analyzer.evaluate_sweep([solution])[0]
        assert serial_point.avg_cycles == sweep_point.avg_cycles

    def test_spawn_workers_with_runtime_registered_workload(self):
        """Spawn-started workers never see a workload registered at runtime
        in the parent; the campaign must still run because only the
        parent-generated vectors (plus the name as provenance) reach them."""
        from repro.core.campaign import run_campaign
        from repro.decnumber.number import DecNumber

        class RuntimeOnly(Workload):
            name = "runtime-only-workload"
            description = "registered after interpreter start"

            def pair(self, rng, index):
                return (DecNumber(0, rng.randint(1, 999), 0),
                        DecNumber(0, rng.randint(1, 999), 0))

        try:
            register(RuntimeOnly())
            cells = [CampaignCell(
                solution=standard_solutions()[SolutionKind.SOFTWARE],
                num_samples=4, seed=2, workload="runtime-only-workload",
            )]
            result = run_campaign(cells, workers=2, shards_per_cell=2,
                                  mp_start_method="spawn")
        finally:
            unregister("runtime-only-workload")
        assert result.reports[0].num_samples == 4
        assert result.reports[0].verification_failures == 0


class TestCampaignCli:
    def test_list_workloads(self, capsys):
        from repro.campaign import main

        assert main(["--list-workloads"]) == 0
        output = capsys.readouterr().out
        for name in EXPECTED_BUILTINS:
            assert name in output

    def test_multi_workload_run(self, capsys):
        from repro.campaign import main

        code = main([
            "--samples", "6", "--workers", "1",
            "--workload", "telco-billing,special-values",
            "--kinds", "method1,software",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Workload: telco-billing" in output
        assert "Cross-workload comparison" in output

    def test_single_workload_renders_title_without_paper_rows(self, capsys):
        from repro.campaign import main

        assert main(["--samples", "5", "--workers", "1",
                     "--workload", "telco-billing",
                     "--kinds", "method1,software"]) == 0
        output = capsys.readouterr().out
        assert "Workload: telco-billing" in output
        assert "(paper)" not in output  # published rows are for the paper mix

    def test_unknown_workload_rejected_with_suggestion(self, capsys):
        from repro.campaign import main

        with pytest.raises(SystemExit):
            main(["--workload", "telco-biling"])
        err = capsys.readouterr().err
        assert "unknown workload" in err and "telco-billing" in err

    def test_duplicate_workloads_rejected_upfront(self, capsys):
        from repro.campaign import main

        with pytest.raises(SystemExit):
            main(["--workload", "telco-billing,telco-billing"])
        assert "duplicate workload" in capsys.readouterr().err

    def test_empty_workload_value_rejected(self, capsys):
        from repro.campaign import main

        with pytest.raises(SystemExit):
            main(["--workload", ","])
        assert "at least one workload" in capsys.readouterr().err

    def test_classes_and_workload_mutually_exclusive(self, capsys):
        from repro.campaign import main

        with pytest.raises(SystemExit):
            main(["--workload", "paper-uniform", "--classes", "normal"])
        assert "mutually exclusive" in capsys.readouterr().err
