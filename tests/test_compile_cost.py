"""What the two compiled tiers cost to compile, counted in source characters.

Python's builtin ``compile()`` is the largest cost of small campaigns, and it
grows with the length of the generated source.  ``Executor.tier2_source_chars``
and ``RocketEmulator.timing_source_chars`` sum that length at compile time;
unlike compile seconds they do not depend on the host, so they can be pinned.
Fresh Spike and Rocket models run the paper's decimal64 multiply kernels
(Software and Method-1, 16 samples, seed 2018), and the suite checks

* the compile decisions: tier-2 blocks, tier-2 deopts and timing spans equal
  the values recorded below, so a smaller source cannot hide a change in
  what gets compiled;
* the source size: each counter stays under a ceiling about 5% above its
  value once tier-2 traces wrote their registers back in one shared epilogue
  and timing spans returned their cache counts to ``RocketEmulator.run``.

Before those two changes the same runs compiled 203,609 tier-2 and 194,680
span characters (Software) and 66,733 and 92,426 (Method-1).
"""

from __future__ import annotations

import pytest

from repro.core.solution import standard_solutions
from repro.rocket.core import RocketEmulator
from repro.sim.spike import SpikeSimulator
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program

#: solution -> (tier-2 blocks, tier-2 deopts, timing spans,
#:              tier-2 source-char ceiling, span source-char ceiling)
EXPECTED = {
    SolutionKind.SOFTWARE: (15, 8, 31, 167_000, 125_000),
    SolutionKind.METHOD1: (11, 6, 25, 54_500, 62_500),
}


@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_compile_decisions_and_source_size(kind):
    blocks, deopts, spans, tier2_ceiling, span_ceiling = EXPECTED[kind]
    program = build_test_program(
        TestProgramConfig(solution=kind, num_samples=16, seed=2018)
    )
    solution = standard_solutions()[kind]
    spike = SpikeSimulator(
        program.image, accelerator=solution.make_accelerator("decimal64")
    )
    spike.run()
    rocket = RocketEmulator(
        program.image, accelerator=solution.make_accelerator("decimal64")
    )
    rocket.run()
    executor = spike.executor
    assert (executor.tier2_blocks, executor.tier2_deopts,
            rocket.timing_spans) == (blocks, deopts, spans)
    assert 0 < executor.tier2_source_chars <= tier2_ceiling
    assert 0 < rocket.timing_source_chars <= span_ceiling
