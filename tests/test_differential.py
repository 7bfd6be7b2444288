"""Cross-model differential verification tests.

Covers the co-simulation harness (spike/rocket/gem5 agreement over every
solution kind and built-in workload), the differential campaign-cell mode
(serial and sharded-multiprocess paths, reporting, CLI exit codes), and the
headline acceptance property: an intentionally injected, model-specific
executor bug is *caught* by the fuzz campaign, *shrunk* to a <=3-vector
reproducer, and *replays* from its recorded seed — then stops reproducing
once the bug is gone.
"""

from __future__ import annotations

import pytest

import repro.gem5.atomic_cpu as atomic_cpu
from repro.core.campaign import (
    CampaignCell,
    grid_cells,
    run_campaign,
    table_iv_cells,
)
from repro.core.evaluation import run_solution_shard
from repro.core.solution import standard_solutions
from repro.core import reporting
from repro.sim.memory import SparseMemory
from repro.testgen.config import SolutionKind
from repro.verification.coverage import CoverageTracker
from repro.verification.database import OperandClass, VerificationDatabase
from repro.verification.differential import (
    MODELS,
    CoSimulator,
    Divergence,
    DualCheckReport,
)
from repro.workloads import registered_workloads


def _differential_cell(kind, vectors):
    return CampaignCell(solution=standard_solutions()[kind],
                        num_samples=len(vectors), differential=True)


def _vectors(count=24, seed=13, classes=OperandClass.ALL):
    return VerificationDatabase(seed).generate_mix(count, classes)


class _BitFlipMemory(SparseMemory):
    """Injected bug: corrupts bit 0 of dword stores whose value has bit 1 set.

    Patched into the gem5 model only, so the corruption is model-specific
    and shows up as a cross-model divergence (spike/rocket agree, gem5
    does not) — the scenario the differential engine exists to catch.
    """

    def write(self, address, size, value):
        if size == 8 and value & 0x2:
            value ^= 1
        super().write(address, size, value)


@pytest.fixture
def broken_gem5(monkeypatch):
    monkeypatch.setattr(atomic_cpu, "SparseMemory", _BitFlipMemory)


# ------------------------------------------------------------------ co-simulator
@pytest.mark.parametrize("kind", SolutionKind.ALL)
def test_models_agree_for_every_solution_kind(kind):
    report = CoSimulator(solution=kind).co_simulate(_vectors())
    assert report.models == MODELS
    assert report.total == 24
    assert report.all_agree
    assert not report.failed
    assert report.first_divergence is None
    solution = standard_solutions()[kind]
    if solution.verifiable:
        assert isinstance(report.check_report, DualCheckReport)
        assert report.check_report.all_passed
    else:
        assert report.check_report is None


def test_model_runs_capture_cycles_and_per_vector_samples():
    report = CoSimulator(solution=SolutionKind.METHOD1).co_simulate(
        _vectors(count=10)
    )
    rocket = report.runs["rocket"]
    assert rocket.cycles > 0
    assert len(rocket.cycle_samples) == 10
    gem5 = report.runs["gem5"]
    assert gem5.cycles > 0
    assert report.runs["spike"].cycles is None
    summary = report.cycle_summary()
    assert set(summary) == {"rocket", "gem5"}
    assert all(run.exit_code == 0 for run in report.runs.values())
    assert "all models agree" in report.describe()


@pytest.mark.parametrize("name", sorted(registered_workloads()))
def test_models_agree_on_every_builtin_workload(name):
    # Run each workload under the first operation it declares, so op-scoped
    # scenarios (e.g. the fma-only mac-chain) are exercised as themselves.
    workload = registered_workloads()[name]
    operation = workload.operations[0]
    kwargs = {} if operation == "multiply" else {"operation": operation}
    vectors = workload.vectors(20, seed=3, **kwargs)
    report = CoSimulator(
        solution=SolutionKind.METHOD1, workload=name, operation=operation
    ).co_simulate(vectors, seed=3)
    assert report.all_agree
    assert not report.failed
    assert report.workload == name
    assert report.operation == operation


def test_model_subset_and_unknown_model():
    from repro.errors import ConfigurationError

    report = CoSimulator(
        solution=SolutionKind.METHOD1, models=("spike", "rocket")
    ).co_simulate(_vectors(count=6))
    assert report.models == ("spike", "rocket")
    assert report.all_agree
    with pytest.raises(ConfigurationError, match="unknown model"):
        CoSimulator(models=("spike", "verilator"))
    with pytest.raises(ConfigurationError, match="at least one model"):
        CoSimulator(models=())
    with pytest.raises(ConfigurationError, match="unknown solution kind"):
        CoSimulator(solution="hardware2")


def test_cosimulator_pinpoints_divergence_and_operand_class(broken_gem5):
    vectors = _vectors(count=30, seed=21)
    report = CoSimulator(solution=SolutionKind.METHOD1).co_simulate(vectors)
    assert not report.all_agree
    assert report.failed
    first = report.first_divergence
    assert isinstance(first, Divergence)
    # The diverging vector is pinpointed with its class and per-model words.
    assert first.operand_class == vectors[first.index].operand_class
    assert first.disagreeing_models() == ("gem5",)
    assert set(first.words) == set(MODELS)
    assert first.words["spike"] == first.words["rocket"] != first.words["gem5"]
    assert "gem5=" in first.describe()
    assert str(first.index) in report.describe()


def test_dual_checker_respects_custom_workload_oracles():
    """A workload overriding expected() defines its own correctness; the
    stdlib cross-check only applies to the golden-default oracle, so such
    workloads keep a single-oracle checker (no spurious disagreements)."""
    from repro.verification.differential import (
        DualOracleChecker,
        dual_checker_for_workload,
    )
    from repro.workloads import Workload, register, unregister

    class CustomOracle(Workload):
        name = "custom-oracle-test"
        description = "domain oracle for dual-checker routing test"

        def pair(self, rng, index):
            from repro.decnumber.number import DecNumber

            return DecNumber(0, 1, 0), DecNumber(0, 1, 0)

        def expected(self, x, y):
            return self._reference().compute(x, y)

    register(CustomOracle())
    try:
        custom = dual_checker_for_workload("custom-oracle-test")
        assert not isinstance(custom, DualOracleChecker)
        # Built-ins use the default golden oracle and get the dual checker.
        builtin = dual_checker_for_workload("telco-billing")
        assert isinstance(builtin, DualOracleChecker)
        # Unknown names (spawn-worker fallback) also keep the dual checker.
        assert isinstance(dual_checker_for_workload(None), DualOracleChecker)
    finally:
        unregister("custom-oracle-test")


# --------------------------------------------------------- differential shards
def test_run_solution_shard_differential_records_instead_of_raising(broken_gem5):
    vectors = _vectors(count=30, seed=21)
    outcome = run_solution_shard(
        _differential_cell(SolutionKind.METHOD1, vectors), vectors
    )
    report = outcome.shard_report
    assert report.differential
    assert report.models == MODELS
    assert report.divergences > 0
    assert report.first_divergence
    assert report.gem5_cycles > 0
    # The spike-vs-oracle check still passed: the bug is gem5-only.
    assert report.check_failed == 0
    assert report.oracle_disagreements == 0


def test_run_solution_shard_differential_records_check_failures():
    """A bug present in *all* models produces no divergence but is caught
    by the dual-oracle check — and recorded, not raised, in differential
    mode."""
    import repro.sim.spike as spike_module
    import repro.rocket.core as rocket_module

    vectors = _vectors(count=12, seed=21)
    cell = _differential_cell(SolutionKind.METHOD1, vectors)
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(atomic_cpu, "SparseMemory", _BitFlipMemory)
        patcher.setattr(spike_module, "SparseMemory", _BitFlipMemory)
        patcher.setattr(rocket_module, "SparseMemory", _BitFlipMemory)
        outcome = run_solution_shard(cell, vectors)
    report = outcome.shard_report
    assert report.divergences == 0          # all models equally wrong
    assert report.check_failed > 0          # ...but the oracle knows
    assert not outcome.check_report.all_passed


def test_differential_shard_condition_coverage_matches_tracker():
    vectors = _vectors(count=20, seed=5)
    outcome = run_solution_shard(
        _differential_cell(SolutionKind.METHOD1, vectors), vectors
    )
    tracker = CoverageTracker()
    tracker.record_all(vectors)
    assert outcome.shard_report.condition_coverage == dict(
        tracker.condition_counts
    )


# ------------------------------------------------------- differential campaigns
def test_differential_campaign_serial_and_sharded_agree():
    cells = table_iv_cells(
        num_samples=24, kinds=(SolutionKind.METHOD1, SolutionKind.SOFTWARE),
        differential=True,
    )
    serial = run_campaign(cells, workers=1)
    assert serial.differential
    assert serial.differential_clean
    assert serial.total_divergences == 0
    for report in serial.reports:
        assert report.differential
        assert report.models == MODELS
        assert report.conditions_covered > 0
        assert report.gem5_cycles > 0
    sharded = run_campaign(cells, workers=2, shards_per_cell=2)
    assert sharded.differential_clean
    for merged, single in zip(sharded.reports, serial.reports):
        assert merged.num_shards == 2
        assert merged.condition_coverage == single.condition_coverage
        assert merged.divergences == 0
    summary = sharded.to_summary()
    assert summary["differential"]["divergences"] == 0
    assert summary["cells"][0]["differential"]["models"] == list(MODELS)


def test_differential_campaign_counts_divergences_per_cell(broken_gem5):
    cells = table_iv_cells(
        num_samples=20, kinds=(SolutionKind.METHOD1,), differential=True,
    )
    result = run_campaign(cells, workers=1)
    assert not result.differential_clean
    assert result.total_divergences > 0
    report = result.reports[0]
    assert report.first_divergence
    rendered = reporting.render_differential(result)
    assert "first divergences:" in rendered
    assert "method1 [diff]" in rendered


def test_differential_workload_cells_cover_the_grid():
    cells = grid_cells(
        workloads=("telco-billing", "carry-stress"),
        num_samples=10,
        solutions=(SolutionKind.METHOD1,),
        differential=True,
    )
    assert [cell.label for cell in cells] == [
        "method1 @ telco-billing [diff]",
        "method1 @ carry-stress [diff]",
    ]
    result = run_campaign(cells, workers=1)
    assert result.differential_clean


def test_render_differential_without_differential_cells():
    cells = table_iv_cells(num_samples=5, kinds=(SolutionKind.METHOD1,))
    result = run_campaign(cells, workers=1)
    assert (
        reporting.render_differential(result)
        == "Differential campaign: no differential cells"
    )


# ------------------------------------------------------------------- CLI paths
def test_campaign_cli_differential_exits_zero_when_clean(capsys):
    from repro.campaign import main

    code = main([
        "--samples", "10", "--workers", "1", "--differential",
        "--kinds", "method1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "Differential campaign: 0 divergence(s)" in out
    assert "conditions covered across cells" in out


def test_campaign_cli_differential_exits_nonzero_on_divergence(
    broken_gem5, capsys
):
    from repro.campaign import main

    code = main([
        "--samples", "20", "--workers", "1", "--differential",
        "--kinds", "method1",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "first divergences:" in out


# --------------------------------------------------- acceptance: catch & shrink
def test_injected_bug_is_caught_shrunk_and_replays(broken_gem5, monkeypatch):
    """The headline property: a model-specific executor bug injected via
    monkeypatch is caught by a fuzz campaign, shrunk to a <=3-vector
    reproducer, replays from its recorded seed while the bug is present,
    and stops reproducing once the bug is fixed."""
    from repro.fuzz import FuzzCampaign, FuzzConfig, Reproducer, replay

    config = FuzzConfig(seed=7, budget=96, batch_size=32, max_failures=1)
    report = FuzzCampaign(config).run()
    assert not report.ok
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.kind == "divergence"
    assert failure.campaign_seed == 7
    assert failure.original_count >= 1
    assert len(failure.vectors) <= 3          # shrunk to a minimal reproducer
    assert "gem5=" in failure.description

    # Replays from the recorded seed while the bug is still present...
    replayed = replay(failure)
    assert replayed.failed
    assert not replayed.all_agree

    # ...round-trips through JSON (how --json reports store reproducers)...
    restored = Reproducer.from_json(failure.to_json())
    assert restored.vectors == failure.vectors
    assert restored.campaign_seed == failure.campaign_seed
    assert replay(restored).failed

    # ...and stops failing once the bug is gone.
    monkeypatch.undo()
    fixed = replay(failure)
    assert not fixed.failed
    assert fixed.all_agree
