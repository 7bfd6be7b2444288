"""Gem5-style simulation layer: Table VI and the third differential model.

The paper's third evaluation point runs the dummy-function binaries on Gem5's
``AtomicSimpleCPU`` in system-call-emulation (SE) mode targeting the RISC-V
ISA.  :class:`~repro.gem5.atomic_cpu.AtomicSimpleCPU` reproduces that timing
model: every instruction takes one CPU cycle and memory responds atomically,
so simulated time is simply ``instructions / frequency``.  Every differential
campaign shard also runs it, as the tier-1-only model beside Spike and Rocket.
"""

from repro.gem5.atomic_cpu import AtomicSimpleCPU, AtomicResult
from repro.gem5.se_mode import SyscallEmulationRunner

__all__ = ["AtomicSimpleCPU", "AtomicResult", "SyscallEmulationRunner"]
