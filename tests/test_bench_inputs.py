"""Count inputs of the benchmark scripts are usage errors, not crashes.

``benchmarks/bench_sim_throughput.py`` and ``benchmarks/bench_campaign.py``
parse every count flag, and the ``REPRO_BENCH_SAMPLES`` default, through
``repro.campaign.positive_int``: a count below one exits 2 with a message
naming the input before any benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


class _Ran(Exception):
    """Raised in place of a measurement, with the arguments it was given."""


def _script(name, monkeypatch):
    """The benchmark script ``name``, every measurement raising :class:`_Ran`."""
    path = REPO_ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def ran(*args, **kwargs):
        raise _Ran(*args)

    for attribute in ("run_benchmark", "run_service_benchmark", "persist"):
        if hasattr(module, attribute):
            monkeypatch.setattr(module, attribute, ran)
    return module


def _usage_error(module, argv, capsys):
    with pytest.raises(SystemExit) as exited:
        module.main(argv)
    assert exited.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("name", ["bench_sim_throughput", "bench_campaign"])
@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_samples_env_default_is_a_usage_error(name, value, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_SAMPLES", value)
    error = _usage_error(_script(name, monkeypatch), [], capsys)
    assert "REPRO_BENCH_SAMPLES" in error and value in error


@pytest.mark.parametrize("name, flag", [
    ("bench_sim_throughput", "--samples"),
    ("bench_sim_throughput", "--repeats"),
    ("bench_campaign", "--samples"),
    ("bench_campaign", "--workers"),
    ("bench_campaign", "--shards-per-cell"),
])
def test_count_flag_below_one_is_a_usage_error(name, flag, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_BENCH_SAMPLES", raising=False)
    error = _usage_error(_script(name, monkeypatch), [flag, "0"], capsys)
    assert f"argument {flag}" in error and "at least 1" in error


def test_samples_flag_overrides_a_bad_env_default(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SAMPLES", "many")
    module = _script("bench_sim_throughput", monkeypatch)
    with pytest.raises(_Ran) as ran:
        module.main(["--samples", "4"])
    assert ran.value.args == (4, 3)
