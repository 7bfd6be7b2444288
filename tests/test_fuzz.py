"""Tests for the coverage-guided fuzz engine (mutators, shrinking, campaigns).

The engine's contract: campaigns are pure functions of their config (same
seed => same batches, coverage and failures), every mutated operand stays
decimal64-encodable, generation is steered toward unhit result conditions,
and failing batches shrink to minimal replayable reproducers.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.decnumber.number import DecNumber
from repro.errors import ConfigurationError
from repro.fuzz import (
    MUTATORS,
    FuzzCampaign,
    FuzzConfig,
    Reproducer,
    choose_mutator,
    ddmin,
    replay,
    run_fuzz_campaign,
    shrink_failure,
    vector_from_json,
    vector_to_json,
)
from repro.fuzz.shrink import _Budget
from repro.verification.coverage import CoverageTracker
from repro.verification.database import VerificationDatabase, VerificationVector
from repro.verification.reference import GoldenReference


# -------------------------------------------------------------------- mutators
def test_every_mutator_produces_encodable_operands():
    reference = GoldenReference()
    rng = random.Random(3)
    corpus = [
        (vector.x, vector.y)
        for vector in VerificationDatabase(3).generate_mix(40, classes=(
            "normal", "overflow", "underflow", "special", "zero"
        ))
    ]
    for mutator in MUTATORS:
        for _ in range(60):
            x, y = rng.choice(corpus)
            x, y = mutator(rng, x, y)
            for operand in (x, y):
                decoded = reference.decode(reference.encode_operand(operand))
                assert decoded.kind == operand.kind
                if operand.is_finite:
                    assert (
                        decoded.sign, decoded.coefficient, decoded.exponent
                    ) == (operand.sign, operand.coefficient, operand.exponent), (
                        f"{mutator.name} produced non-canonical {operand!r}"
                    )


def test_mutators_are_deterministic_per_rng_seed():
    corpus_vector = VerificationDatabase(4).generate_mix(1)[0]
    for mutator in MUTATORS:
        first = mutator(random.Random(9), corpus_vector.x, corpus_vector.y)
        second = mutator(random.Random(9), corpus_vector.x, corpus_vector.y)
        assert first == second


def test_choose_mutator_steers_toward_unhit_conditions():
    rng = random.Random(0)
    unhit = frozenset({"overflow"})
    counts = {}
    for _ in range(3000):
        name = choose_mutator(rng, unhit).name
        counts[name] = counts.get(name, 0) + 1
    # exponent-up targets overflow and must dominate untargeted mutators...
    assert counts["exponent-up"] > 2 * counts.get("digit-tweak", 0)
    # ...but no mutator is ever starved (base weight 1).
    assert all(mutator.name in counts for mutator in MUTATORS)


# -------------------------------------------------------------------- shrinking
def _mkvec(index, x=None, y=None, klass="t"):
    return VerificationVector(
        x=x if x is not None else DecNumber(0, 123456, 2),
        y=y if y is not None else DecNumber(1, 77, -3),
        operand_class=klass,
        index=index,
    )


def test_ddmin_isolates_the_single_failing_vector():
    bad = _mkvec(5, x=DecNumber.infinity(0))
    vectors = [_mkvec(index) for index in range(8)]
    vectors[5] = bad

    def predicate(subset):
        return any(vector.x.is_infinite for vector in subset)

    result = ddmin(vectors, predicate, _Budget(64))
    assert result == [bad]


def test_ddmin_keeps_coupled_pairs():
    vectors = [_mkvec(index) for index in range(6)]

    def predicate(subset):
        indices = {vector.index for vector in subset}
        return {1, 4} <= indices

    result = ddmin(vectors, predicate, _Budget(64))
    assert sorted(vector.index for vector in result) == [1, 4]


def test_shrink_failure_simplifies_operands():
    bad = _mkvec(2, x=DecNumber(1, 987654321, -7), y=DecNumber(0, 333, 12))
    vectors = [_mkvec(index) for index in range(5)]
    vectors[2] = bad

    def predicate(subset):
        # Fails whenever any vector has a negative x: sign is the essence,
        # everything else about the operands should shrink away.
        return any(vector.x.sign == 1 for vector in subset)

    result = shrink_failure(vectors, predicate)
    assert len(result) == 1
    survivor = result[0]
    assert survivor.x.sign == 1
    assert survivor.x.coefficient < 987654321   # simplified
    assert survivor.y == DecNumber(0, 1, 0)     # irrelevant operand -> 1


def test_shrink_failure_returns_input_when_not_reproducible():
    vectors = [_mkvec(index) for index in range(3)]
    result = shrink_failure(vectors, lambda subset: False)
    assert result == vectors


# ---------------------------------------------------------------- serialization
def test_vector_json_round_trip():
    for vector in (
        _mkvec(7),
        _mkvec(0, x=DecNumber.snan(321, 1), y=DecNumber.infinity(1)),
        _mkvec(1, x=DecNumber(1, 0, -398), klass="fuzz:make-zero"),
    ):
        assert vector_from_json(vector_to_json(vector)) == vector
        # And through actual JSON text, as the CLI writes it.
        assert vector_from_json(
            json.loads(json.dumps(vector_to_json(vector)))
        ) == vector


# ------------------------------------------------------------------- campaigns
def test_fuzz_config_validation():
    with pytest.raises(ConfigurationError):
        FuzzConfig(budget=0)
    with pytest.raises(ConfigurationError):
        FuzzConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        FuzzConfig(solution="quantum")
    with pytest.raises(ConfigurationError):
        FuzzConfig(max_failures=0)


def test_campaign_is_deterministic_and_respects_budget():
    config = FuzzConfig(seed=2018, budget=96, batch_size=48)
    first = FuzzCampaign(config).run()
    second = FuzzCampaign(config).run()
    assert first.ok and second.ok
    assert first.vectors_run == second.vectors_run == 96
    assert first.batches_run == second.batches_run == 2
    assert first.corpus_size == second.corpus_size
    assert dict(first.coverage.condition_counts) == dict(
        second.coverage.condition_counts
    )
    assert dict(first.coverage.class_counts) == dict(
        second.coverage.class_counts
    )


def test_campaign_reaches_full_condition_coverage():
    report = run_fuzz_campaign(seed=2018, budget=192, batch_size=48)
    assert report.ok
    covered = report.coverage.covered_conditions()
    assert covered == frozenset(CoverageTracker.CONDITIONS)
    assert report.coverage_events  # steering actually extended coverage
    assert "11/11" in report.describe()


@pytest.mark.parametrize("fmt, operation, budget", [
    ("decimal64", "multiply", 768),
    ("decimal128", "fma", 128),
])
def test_every_drawn_vector_passes_the_replay_check(
    monkeypatch, fmt, operation, budget
):
    """Every vector a seed-2018 campaign draws (the CI fuzz smokes' sizes)
    round-trips through its format, so ``Reproducer.from_json`` rejects no
    reproducer the fuzzer can record."""
    drawn = []
    co_simulate = FuzzCampaign.co_simulate

    def recording(self, vectors):
        drawn.extend(vectors)
        return co_simulate(self, vectors)

    monkeypatch.setattr(FuzzCampaign, "co_simulate", recording)
    report = run_fuzz_campaign(
        seed=2018, budget=budget, fmt=fmt, operation=operation
    )
    assert report.ok
    assert len(drawn) == budget
    entry = Reproducer(
        kind="divergence", description="every drawn vector", vectors=drawn,
        campaign_seed=2018, batch_index=0, solution="method1", fmt=fmt,
        operation=operation,
    ).to_json()
    assert Reproducer.from_json(json.loads(json.dumps(entry))).vectors == drawn


def test_campaign_workload_corpus():
    report = run_fuzz_campaign(
        seed=5, budget=32, batch_size=32, workload="carry-stress",
    )
    assert report.ok
    assert report.config.workload == "carry-stress"
    # Fuzz vectors are tagged with their mutator lineage.
    assert all(
        name.startswith("fuzz:") for name in report.coverage.class_counts
    )


def test_campaign_links_once_per_batch_size(monkeypatch):
    """Batches of one size share one linked program on the campaign's warm
    runner; only the vectors are rebound between them."""
    import repro.testgen.generator as generator

    builds = []
    build = generator.build_test_program

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(generator, "build_test_program", counting_build)
    report = run_fuzz_campaign(seed=3, budget=48, batch_size=16)
    assert report.ok
    assert report.batches_run == 3
    assert len(builds) == 1


def test_campaign_time_limit_stops_between_batches():
    report = run_fuzz_campaign(seed=6, budget=10_000, batch_size=8,
                               time_limit=0.0)
    assert report.batches_run == 0
    assert report.vectors_run == 0


def test_campaign_summary_is_json_ready():
    report = run_fuzz_campaign(seed=8, budget=32, batch_size=32)
    summary = json.loads(json.dumps(report.to_summary()))
    assert summary["seed"] == 8
    assert summary["vectors_run"] == 32
    assert summary["failures"] == []
    assert set(summary["coverage"]["conditions"]) == set(
        CoverageTracker.CONDITIONS
    )


# ------------------------------------------------------------------------- CLI
def test_fuzz_cli_clean_run_and_json(tmp_path, capsys):
    from repro.fuzz.__main__ import main

    out_path = tmp_path / "fuzz.json"
    code = main([
        "--seed", "2018", "--budget", "32", "--batch-size", "32",
        "--json", str(out_path),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "fuzz campaign: seed 2018" in captured
    data = json.loads(out_path.read_text())
    assert data["vectors_run"] == 32

    # Replaying a report with no failures is a no-op success.
    code = main(["--replay", str(out_path)])
    assert code == 0
    assert "no recorded failures" in capsys.readouterr().out


def test_fuzz_cli_rejects_unknown_workload_and_model():
    from repro.fuzz.__main__ import main

    with pytest.raises(ConfigurationError, match="unknown workload"):
        main(["--workload", "nope", "--budget", "8"])
    # Every campaign runs all three models, so there is no model option.
    with pytest.raises(SystemExit):
        main(["--models", "spike,verilator"])


def test_fuzz_cli_replay_rejects_non_reports_and_loads_old_reports(
    tmp_path, capsys
):
    from repro.fuzz.__main__ import main

    # A campaign summary and a bare JSON list are not fuzz reports.
    for name, data in (("campaign.json", {"cells": [], "total_samples": 0}),
                       ("list.json", [1, 2])):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as raised:
            main(["--replay", str(path)])
        assert raised.value.code == 2
        assert f"--replay {path}: not a fuzz report" in capsys.readouterr().err

    # A report written before the model subset option went away still
    # carries "models"; it loads and replays on all three models.
    vectors = VerificationDatabase(9).generate_mix(2)
    failure = Reproducer(
        kind="divergence", description="recorded", vectors=vectors,
        campaign_seed=9, batch_index=0, solution="method1",
    ).to_json()
    failure["models"] = ["spike", "rocket"]
    path = tmp_path / "old_report.json"
    path.write_text(json.dumps({"seed": 9, "failures": [failure]}))
    assert Reproducer.from_json(failure).vectors == vectors
    assert main(["--replay", str(path)]) == 0
    assert "no longer fails" in capsys.readouterr().out


@pytest.mark.parametrize("mangle, named", [
    (lambda entry: 7, "expected a JSON object"),
    (lambda entry: {key: value for key, value in entry.items()
                    if key != "description"}, "field 'description'"),
    (lambda entry: dict(entry, vectors=[{"x": 1}]), "field 'vectors'"),
    (lambda entry: dict(entry, solution="quantum"), "field 'solution'"),
    (lambda entry: dict(entry, vectors=[]), "field 'vectors'"),
    # Operands decimal64 cannot hold: thirty digits would round, 5E+400
    # would overflow to Infinity, so the kernel would run on another value;
    # an exponent written as a string cannot be encoded at all.
    (lambda entry: dict(entry, vectors=[dict(
        entry["vectors"][0],
        x={"sign": 0, "coefficient": "1" * 30, "exponent": 0},
    )]), "field 'vectors': vector 0 operand x"),
    (lambda entry: dict(entry, vectors=[dict(
        entry["vectors"][0],
        y={"sign": 0, "coefficient": "5", "exponent": 400},
    )]), "field 'vectors': vector 0 operand y"),
    (lambda entry: dict(entry, vectors=[dict(
        entry["vectors"][0],
        y={"sign": 0, "coefficient": "5", "exponent": "400"},
    )]), "field 'vectors': vector 0 operand y"),
], ids=["not-an-object", "no-description", "malformed-vector",
        "unknown-solution", "no-vectors", "unrepresentable-coefficient",
        "overflowing-exponent", "non-integer-exponent"])
def test_fuzz_cli_replay_checks_every_failure_before_replaying(
    tmp_path, capsys, mangle, named
):
    from repro.fuzz.__main__ import main

    valid = Reproducer(
        kind="divergence", description="recorded",
        vectors=VerificationDatabase(9).generate_mix(2),
        campaign_seed=9, batch_index=0, solution="method1",
    ).to_json()
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"seed": 9, "failures": [valid, mangle(valid)]}))
    with pytest.raises(SystemExit) as raised:
        main(["--replay", str(path)])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert f"--replay {path}: failure 1: " in captured.err
    assert named in captured.err
    assert "fails" not in captured.out      # the valid entry never replayed


def test_fuzz_cli_reports_failures_with_exit_code(tmp_path, capsys, monkeypatch):
    from repro.fuzz.__main__ import main
    from repro.sim.memory import SparseMemory
    from tests.conftest import give_gem5_memory

    class Broken(SparseMemory):
        def write(self, address, size, value):
            if size == 8 and value & 0x2:
                value ^= 1
            super().write(address, size, value)

    give_gem5_memory(monkeypatch, Broken)
    out_path = tmp_path / "fuzz.json"
    code = main([
        "--seed", "7", "--budget", "32", "--batch-size", "32",
        "--max-failures", "1", "--json", str(out_path),
    ])
    captured = capsys.readouterr().out
    assert code == 1
    assert "[divergence]" in captured
    data = json.loads(out_path.read_text())
    assert data["failures"]
    recorded = Reproducer.from_json(data["failures"][0])
    assert replay(recorded).failed          # bug still present

    # --replay drives the recorded reproducer and reports it still failing.
    code = main(["--replay", str(out_path)])
    assert code == 1
    assert "still fails" in capsys.readouterr().out

    # Once the bug is fixed, the same reproducer replays clean.
    monkeypatch.undo()
    code = main(["--replay", str(out_path)])
    assert code == 0
    assert "no longer fails" in capsys.readouterr().out
