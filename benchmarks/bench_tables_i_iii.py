"""Regenerate Tables I-III (framework configuration, instruction set, encodings).

These tables are descriptive rather than measured; the benchmark times the
macro/encoding generator (the part of the framework a user actually runs) and
prints our equivalents of the paper's tables.
"""

from __future__ import annotations

from repro.asm import macros
from repro.core import reporting


def test_table_i_environment(benchmark):
    """Table I equivalent: the components this reproduction substitutes."""
    rows = {
        "Compiler": "repro.asm (programmatic RV64 assembler)",
        "ISA simulator": "repro.sim.spike (functional RV64 simulator)",
        "Cycle-accurate emulator": "repro.rocket (Rocket-like timing model)",
        "ISA": "RV64IM + Zicsr + custom-0..3 (RoCC)",
        "Processor core": "repro.rocket.RocketEmulator",
        "Decimal software library": "repro.decnumber (decNumber stand-in)",
        "Testing": "repro.verification (constrained-random vector database)",
    }
    benchmark(lambda: "\n".join(f"{k:<28s} {v}" for k, v in rows.items()))
    print()
    print("Table I: Development environment (this reproduction)")
    for key, value in rows.items():
        print(f"  {key:<28s} {value}")


def test_table_ii_instruction_set(benchmark):
    text = benchmark(reporting.render_table_ii)
    print()
    print(text)


def test_table_iii_encodings(benchmark):
    text = benchmark(reporting.render_table_iii)
    print()
    print(text)
    # The example encoding from Section IV-B of the paper (DEC_ADD with core
    # registers 10/11 as sources and 12 as destination) is generated too.
    macro = macros.make_macro("DEC_ADD")
    print(f"\nGenerated wrapper for the paper's example:\n{macro.c_wrapper()}")
