"""AtomicSimpleCPU timing model.

Gem5's ``AtomicSimpleCPU`` advances simulated time by a fixed period per
instruction and performs memory accesses atomically (no cache timing, no
pipeline).  That is deliberately a much coarser model than the Rocket
emulator — the paper uses it only to show that the *dummy-function* speedup is
consistent across evaluation environments (Table VI), not to measure the
accelerator.

At one cycle per instruction the model is Spike's machine with a clock, so
:class:`AtomicSimpleCPU` is a :class:`~repro.sim.spike.SpikeSimulator` whose
ticks are its retire count.  A differential shard runs the one functional
engine twice — warm and restored by a :class:`~repro.sim.batch.BatchRunner`
in Spike, fresh here — beside Rocket's per-step loop and compiled timing
spans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.spike import SimulationResult, SpikeSimulator


@dataclass
class AtomicResult(SimulationResult):
    """Functional result plus the atomic model's simulated time."""

    frequency_hz: int = 0

    @property
    def ticks(self) -> int:
        """One tick per retired instruction."""
        return self.instructions_retired

    @property
    def simulated_seconds(self) -> float:
        return self.ticks / self.frequency_hz


class AtomicSimpleCPU(SpikeSimulator):
    """One-instruction-per-cycle atomic CPU model (SE mode)."""

    def __init__(self, image, frequency_hz: int = 2_000_000_000,
                 accelerator=None, **kwargs) -> None:
        super().__init__(image, accelerator=accelerator, **kwargs)
        self.frequency_hz = frequency_hz

    def run(self) -> AtomicResult:
        """Run to completion; simulated time is ticks / frequency."""
        return self._run_to_exit(AtomicResult, frequency_hz=self.frequency_hz)
