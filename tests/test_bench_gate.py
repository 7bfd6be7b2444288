"""The throughput benchmark's CI gate (``bench_sim_throughput.py
--check-regression``): warm timing spans must beat the interpreted and the
cold Rocket rate of the same run, every count that repeats exactly on any
host must equal the latest history entry at the same sample count, and a
failure must name the ratio or field."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bench_module():
    path = REPO_ROOT / "benchmarks" / "bench_sim_throughput.py"
    spec = importlib.util.spec_from_file_location("bench_sim_throughput", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _history():
    return json.loads((REPO_ROOT / "BENCH_sim.json").read_text())["history"]


def _passing_record():
    """The latest 40-sample entry, with an interpreted Rocket rate that the
    gate's ratios accept."""
    record = copy.deepcopy(
        [entry for entry in _history() if entry.get("samples") == 40][-1]
    )
    record["instr_per_s"]["rocket_interpreted"] = (
        record["instr_per_s"]["rocket"] // 3
    )
    return record


@pytest.mark.parametrize("field", [
    "results_sha256",
    "instructions",
    "rocket_tiers.cycles",
    "rocket_tiers.timing_spans",
    "rocket_tiers.compiled_instructions",
])
def test_doctored_count_is_named(tmp_path, field):
    bench = _bench_module()
    history = _history()
    record = [entry for entry in history if entry.get("samples") == 40][-1]
    baseline = tmp_path / "BENCH_sim.json"

    baseline.write_text(json.dumps({"history": history}))
    assert bench.check_regression(record, str(baseline)) == []

    doctored = copy.deepcopy(record)
    *parents, leaf = field.split(".")
    holder = doctored
    for key in parents:
        holder = holder[key]
    holder[leaf] = "0" * 64 if leaf == "results_sha256" else holder[leaf] + 1
    baseline.write_text(json.dumps({"history": history + [doctored]}))
    failures = bench.check_regression(record, str(baseline))
    assert len(failures) == 1 and failures[0].startswith(f"{field}:")


@pytest.mark.parametrize("slower", ["rocket_interpreted", "rocket_cold"])
def test_spans_that_stop_paying_fail_the_gate(tmp_path, slower):
    # Warm spans no faster than the interpreted loop (or than a cold
    # emulator) in the same run fail, whatever the host's absolute speed.
    bench = _bench_module()
    baseline = tmp_path / "BENCH_sim.json"
    baseline.write_text(json.dumps({"history": _history()}))
    record = _passing_record()
    assert bench.check_regression(record, str(baseline)) == []

    record["instr_per_s"][slower] = record["instr_per_s"]["rocket"]
    failures = bench.check_regression(record, str(baseline))
    assert len(failures) == 1 and failures[0].startswith(f"rocket/{slower}:")


def test_absolute_rates_are_not_gated(tmp_path):
    # A host half as fast as every recorded one passes: only same-run
    # ratios and exact counts are compared.
    bench = _bench_module()
    baseline = tmp_path / "BENCH_sim.json"
    baseline.write_text(json.dumps({"history": _history()}))
    record = _passing_record()
    record["instr_per_s"] = {
        name: rate // 2 for name, rate in record["instr_per_s"].items()
    }
    assert bench.check_regression(record, str(baseline)) == []
