"""Assembler layer: from kernels to memory images.

This subpackage stands in for the GNU RISC-V cross toolchain of the paper's
framework (Fig. 2, "GCC RISC-V cross compiler" box).
:class:`~repro.asm.builder.AsmBuilder`, the programmatic assembler the kernel
generators in :mod:`repro.kernels` call, produces a
:class:`~repro.asm.program.Program`, which the
:class:`~repro.asm.linker.Linker` lays out into a flat
:class:`~repro.asm.program.Image` ready to be loaded by the simulators.
"""

from repro.asm.program import Image, Program, Section, DEFAULT_TEXT_BASE, DEFAULT_DATA_BASE
from repro.asm.builder import AsmBuilder
from repro.asm.linker import Linker
from repro.asm import macros

__all__ = [
    "Image",
    "Program",
    "Section",
    "AsmBuilder",
    "Linker",
    "macros",
    "DEFAULT_TEXT_BASE",
    "DEFAULT_DATA_BASE",
]
