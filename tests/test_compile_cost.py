"""What the models compile, counted host-independently.

Python's builtin ``compile()`` is the largest cost of small campaigns, and it
grows with the length of the generated source.  Fresh models run the paper's
decimal64 multiply kernels (Software and Method-1, 16 samples, seed 2018),
and the suite checks

* Rocket's compile decisions and source size: the number of timing spans
  equals the value recorded below, so a smaller source cannot hide a change
  in what gets compiled, and ``RocketEmulator.timing_source_chars`` (the
  summed length of every span's source) stays under a ceiling about 5%
  above its value once a span stopped at the head of an already compiled
  span instead of compiling that code again;
* the functional engine compiles nothing per program: its closure factories
  are compiled once per (shape, mnemonic, closure) per process, so once one
  run has warmed them a fresh ``SpikeSimulator`` runs without calling
  ``compile()``.

Before spans returned their cache counts, the same runs compiled 194,680
span characters (Software) and 92,426 (Method-1); before spans stopped at
compiled heads, 31 spans of 119,052 characters and 25 of 59,508.
"""

from __future__ import annotations

import builtins

import pytest

from repro.core.solution import standard_solutions
from repro.rocket.core import RocketEmulator
from repro.sim.spike import SpikeSimulator
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program

#: solution -> (timing spans, span source-char ceiling)
EXPECTED = {
    SolutionKind.SOFTWARE: (29, 78_000),
    SolutionKind.METHOD1: (23, 52_000),
}


def _kernel(kind):
    """The 16-sample decimal64 multiply program and its solution."""
    program = build_test_program(
        TestProgramConfig(solution=kind, num_samples=16, seed=2018)
    )
    return program, standard_solutions()[kind]


@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_compile_decisions_and_source_size(kind):
    spans, span_ceiling = EXPECTED[kind]
    program, solution = _kernel(kind)
    rocket = RocketEmulator(
        program.image, accelerator=solution.make_accelerator("decimal64")
    )
    rocket.run()
    assert rocket.timing_spans == spans
    assert 0 < rocket.timing_source_chars <= span_ceiling


@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_warm_process_runs_fresh_spike_without_compiling(kind, monkeypatch):
    program, solution = _kernel(kind)
    first = SpikeSimulator(
        program.image, accelerator=solution.make_accelerator("decimal64")
    ).run()

    sources = []
    real_compile = builtins.compile

    def counted_compile(source, filename, *args, **kwargs):
        sources.append(filename)
        return real_compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted_compile)
    fresh = SpikeSimulator(
        program.image, accelerator=solution.make_accelerator("decimal64")
    ).run()
    assert sources == []
    assert fresh.instructions_retired == first.instructions_retired
    assert program.read_results(fresh) == program.read_results(first)
