"""System-call-emulation (SE) mode runner.

In Gem5's SE mode "we need to specify a binary file to be executed" (paper,
Section V).  This thin wrapper plays that role for our framework: it accepts a
linked :class:`~repro.asm.program.Image` (our "binary"), runs it on the
``AtomicSimpleCPU`` model, and returns the simulated statistics in one
object — the same shape of workflow as
``gem5 ... --cpu-type=AtomicSimpleCPU se.py -c binary``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gem5.atomic_cpu import AtomicResult, AtomicSimpleCPU


@dataclass(frozen=True)
class Gem5Config:
    """The subset of Gem5 options the paper's evaluation uses."""

    frequency_hz: int = 2_000_000_000


class SyscallEmulationRunner:
    """Run binaries under the SE-mode ``AtomicSimpleCPU`` model."""

    def __init__(self, config: Gem5Config = None) -> None:
        self.config = config if config is not None else Gem5Config()

    def run_binary(self, image, accelerator=None) -> AtomicResult:
        """Execute one linked image and return its simulated statistics."""
        cpu = AtomicSimpleCPU(
            image,
            frequency_hz=self.config.frequency_hz,
            accelerator=accelerator,
        )
        return cpu.run()
