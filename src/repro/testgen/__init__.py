"""The paper's test-program generator.

Section III: "we also develop a test program generator written in C.  The
purpose of the generator is to configure the parameters ... including the
format of precision (double or quad), input data-type (rounding, overflow,
normal, underflow, etc.), type of the arithmetic operation, the number of
repetition per calculation, pattern of output (execution time or number of
cycle)".  :class:`~repro.testgen.config.TestProgramConfig` exposes those
knobs except the output pattern, which is always the cycle count (every
program brackets each calculation with ``RDCYCLE``), and
:func:`~repro.testgen.generator.build_test_program` turns a configuration
(plus vectors from the verification database) into a linked, runnable RISC-V
image.
"""

from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import GeneratedProgram, build_test_program, HARNESS_SYMBOLS

__all__ = [
    "SolutionKind",
    "TestProgramConfig",
    "GeneratedProgram",
    "build_test_program",
    "HARNESS_SYMBOLS",
]
