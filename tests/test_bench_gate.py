"""The throughput benchmark's CI gate (``bench_sim_throughput.py
--check-regression``): besides the instr/s floor, every count that repeats
exactly on any host must equal the latest history entry at the same sample
count, and a mismatch must name the field."""

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


@pytest.mark.parametrize("field", [
    "results_sha256",
    "instructions",
    "rocket_tiers.cycles",
    "rocket_tiers.timing_spans",
    "rocket_tiers.compiled_instructions",
])
def test_doctored_count_is_named(tmp_path, field):
    bench = _bench_module()
    history = json.loads((REPO_ROOT / "BENCH_sim.json").read_text())["history"]
    record = [entry for entry in history if entry.get("samples") == 40][-1]
    baseline = tmp_path / "BENCH_sim.json"

    baseline.write_text(json.dumps({"history": history}))
    assert bench.check_regression(record, str(baseline), 0.1) == []

    doctored = copy.deepcopy(record)
    *parents, leaf = field.split(".")
    holder = doctored
    for key in parents:
        holder = holder[key]
    holder[leaf] = "0" * 64 if leaf == "results_sha256" else holder[leaf] + 1
    baseline.write_text(json.dumps({"history": history + [doctored]}))
    failures = bench.check_regression(record, str(baseline), 0.1)
    assert len(failures) == 1 and failures[0].startswith(f"{field}:")
