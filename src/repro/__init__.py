"""Reproduction of "Cycle-Accurate Evaluation of Software-Hardware Co-Design of
Decimal Computation in RISC-V Ecosystem" (SOCC 2019, arXiv:2003.05315).

The package is organised as a stack of substrates (bottom-up):

``repro.isa``
    RV64IM + Zicsr + RoCC custom-0..3 instruction definitions, encoder and
    decoder.
``repro.asm``
    Programmatic assembler and linker producing flat RV64 memory images.
``repro.sim``
    Functional (SPIKE-like) simulation: memory, hart state, executor, HTIF.
``repro.rocket``
    Cycle-accurate-style Rocket-like in-order core timing model with L1
    caches, branch penalties, iterative mul/div and a RoCC port.
``repro.rocc``
    The RoCC accelerator framework and the decimal accelerator (Table II
    instructions, Fig. 4/5 architecture).
``repro.hw``
    Hardware component models (BCD carry-lookahead adder, converters) with a
    gate/delay cost model.
``repro.decnumber``
    Pure-Python IEEE 754-2008 decimal floating-point library (decNumber
    stand-in): DPD codec, decimal64/128, contexts, rounding, arithmetic.
``repro.kernels``
    RISC-V assembly kernels for the evaluated solutions (software baseline,
    Method-1 with RoCC, Method-1 with dummy functions).
``repro.testgen``
    The paper's test-program generator.
``repro.verification``
    Verification database (operand classes), golden reference and checker.
``repro.gem5``
    Gem5 AtomicSimpleCPU (SE mode) stand-in: the functional machine at tier 1,
    one tick per instruction.
``repro.core``
    The paper's contribution: the evaluation framework tying everything
    together, plus reporting that regenerates Tables IV-VI.
"""

from repro._version import __version__

__all__ = ["__version__"]
