"""Golden outputs of every ``python -m repro.campaign`` mode.

Each mode runs in-process at 4 samples with ``--workers 1`` and ``--json``;
its rendered text, ``--json`` summary and the ``cell_key_payload`` of every
cell it builds must match the files under ``tests/golden/`` byte for byte.
Only wall-clock fields (the ``wall clock`` line, the ``Sim s`` column,
``wall_seconds``, ``sim_wall_seconds``) and temporary paths are masked.
The same holds for the cells that ``cells_from_spec`` builds for a few
service specs.

Regenerate the files (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

BASE = ("--workers", "1", "--samples", "4")
#: The workloads that support decimal128 multiply, sorted as the CLI sorts
#: an auto-expanded list.
D128_MULTIPLY_WORKLOADS = (
    "carry-stress,currency-fx,paper-uniform,sparse-digits,special-values,"
    "tax-ladder,telco-billing"
)

#: Mode name -> (CLI arguments, golden file stem).  A mode whose stem is
#: another mode's name must reproduce that mode's output exactly.
MODES = {
    "default": ((), "default"),
    "shards2": (("--shards-per-cell", "2"), "shards2"),
    "cache_cold": (("--cache-dir", "{cache}"), "cache_cold"),
    "cache_warm": (("--cache-dir", "{cache}"), "cache_warm"),
    "differential": (("--differential",), "differential"),
    "workload_paper": (("--workload", "paper-uniform"), "workload_paper"),
    "workloads_two": (
        ("--workload", "telco-billing,carry-stress"), "workloads_two"
    ),
    "formats_two": (("--format", "decimal64,decimal128"), "formats_two"),
    "ops_add_fma_diff": (
        ("--op", "add,fma", "--differential"), "ops_add_fma_diff"
    ),
    "pipeline_sweep_diff": (
        ("--pipeline-sweep", "--depths", "1,2", "--widths", "1,2",
         "--differential"),
        "pipeline_sweep_diff",
    ),
    # The format axis never expands a pipeline sweep to the workloads.
    "pipeline_sweep_formats_diff": (
        ("--pipeline-sweep", "--depths", "1,2", "--widths", "1",
         "--format", "decimal64,decimal128", "--differential"),
        "pipeline_sweep_formats_diff",
    ),
    "format_d128_diff_listed": (
        ("--format", "decimal128", "--differential",
         "--workload", D128_MULTIPLY_WORKLOADS),
        "format_d128_diff_listed",
    ),
    # With no --workload, the format axis expands to every registered
    # workload that supports the requested formats *and* operations.
    "format_d128_diff_auto": (
        ("--format", "decimal128", "--differential"),
        "format_d128_diff_listed",
    ),
}

SPECS = {
    "spec_default": {"samples": 4},
    "spec_workloads": {"samples": 4, "workloads": ["telco-billing",
                                                   "carry-stress"]},
    "spec_workload_d128": {"samples": 5, "workload": "carry-stress",
                           "fmt": "decimal128", "op": "add",
                           "kinds": ["method1", "software"]},
    "spec_classes": {"samples": 6, "seed": 7, "classes": ["zero", "normal"],
                     "repetitions": 2, "verify": False,
                     "differential": True},
}


def _mask_text(text: str) -> str:
    lines = []
    in_cells = False
    for line in text.splitlines():
        if line.startswith("wall clock "):
            line = "wall clock <masked>"
        elif line.startswith("result cache: "):
            line = re.sub(r"served from \S+ \(", "served from <cache> (", line)
        elif line.startswith("summary -> "):
            line = "summary -> <json>"
        elif in_cells and line and not line.startswith("-"):
            line = re.sub(r"\S+$", "<sim_s>", line)
        if line.startswith("Cell ") and line.endswith("Sim s"):
            in_cells = True
        elif not line or line.startswith(("result cache: ", "summary -> ")):
            in_cells = False
        lines.append(line)
    return "\n".join(lines) + "\n"


def _mask_json(value):
    if isinstance(value, dict):
        return {
            key: "<masked>" if key in ("wall_seconds", "sim_wall_seconds")
            else _mask_json(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_mask_json(item) for item in value]
    return value


def _key_payloads(cells, shards_per_cell: int) -> list:
    from repro.service.cache import cell_key_payload

    return [cell_key_payload(cell, shards_per_cell, version="pinned")
            for cell in cells]


def run_mode(name: str, workdir: str) -> dict:
    """Rendered text, JSON summary, exit code and cell keys of one mode."""
    from repro import campaign
    from repro.core import reporting

    if name == "cache_warm":
        run_mode("cache_cold", workdir)  # fill the cache first
    args, _stem = MODES[name]
    json_path = os.path.join(workdir, f"{name}.json")
    argv = [*BASE, *(arg.format(cache=os.path.join(workdir, "cache"))
                     for arg in args), "--json", json_path]
    built = []
    render_campaign = reporting.render_campaign

    def recording(result):
        built.append(result.cells)
        return render_campaign(result)

    out = io.StringIO()
    reporting.render_campaign = recording
    try:
        with contextlib.redirect_stdout(out):
            code = campaign.main(argv)
    finally:
        reporting.render_campaign = render_campaign
    with open(json_path) as handle:
        summary = json.load(handle)
    shards = int(args[args.index("--shards-per-cell") + 1]) \
        if "--shards-per-cell" in args else 1
    return {
        "text": f"exit {code}\n" + _mask_text(out.getvalue()),
        "summary": _mask_json(summary),
        "keys": _key_payloads(built[0], shards),
    }


def spec_keys(name: str) -> list:
    from repro.service.engine import cells_from_spec

    return _key_payloads(cells_from_spec(SPECS[name]), 1)


def _golden_path(stem: str, suffix: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{stem}{suffix}")


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", list(MODES))
def test_campaign_mode_matches_golden(name, tmp_path):
    outcome = run_mode(name, str(tmp_path))
    stem = MODES[name][1]
    assert outcome["text"] == _read(_golden_path(stem, ".txt"))
    assert _dumps(outcome["summary"]) == _read(_golden_path(stem, ".json"))
    assert _dumps(outcome["keys"]) == _read(_golden_path(stem, ".keys.json"))


@pytest.mark.parametrize("name", list(SPECS))
def test_service_spec_cells_match_golden(name):
    assert _dumps(spec_keys(name)) == _read(_golden_path(name, ".keys.json"))


def write_goldens() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, (_args, stem) in MODES.items():
        if stem != name:
            continue
        with tempfile.TemporaryDirectory(prefix="repro-golden-") as workdir:
            outcome = run_mode(name, workdir)
            with open(_golden_path(stem, ".txt"), "w") as handle:
                handle.write(outcome["text"])
            with open(_golden_path(stem, ".json"), "w") as handle:
                handle.write(_dumps(outcome["summary"]))
            with open(_golden_path(stem, ".keys.json"), "w") as handle:
                handle.write(_dumps(outcome["keys"]))
    for name in SPECS:
        with open(_golden_path(name, ".keys.json"), "w") as handle:
            handle.write(_dumps(spec_keys(name)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_goldens()
