"""AtomicSimpleCPU timing model.

Gem5's ``AtomicSimpleCPU`` advances simulated time by a fixed period per
instruction and performs memory accesses atomically (no cache timing, no
pipeline).  That is deliberately a much coarser model than the Rocket
emulator — the paper uses it only to show that the *dummy-function* speedup is
consistent across evaluation environments (Table VI), not to measure the
accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.isa import csr as csrdefs
from repro.sim.executor import Executor
from repro.sim.hart import DEFAULT_STACK_TOP, Hart
from repro.sim.htif import Htif
from repro.sim.memory import SparseMemory
from repro.sim.spike import DEFAULT_MAX_INSTRUCTIONS, SimulationResult


@dataclass
class AtomicResult(SimulationResult):
    """Functional result plus the atomic model's simulated time."""

    ticks: int = 0
    simulated_seconds: float = 0.0
    frequency_hz: int = 0


class AtomicSimpleCPU:
    """One-instruction-per-cycle atomic CPU model (SE mode)."""

    def __init__(
        self,
        image,
        frequency_hz: int = 2_000_000_000,
        accelerator=None,
        stack_top: int = DEFAULT_STACK_TOP,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> None:
        self.image = image
        self.frequency_hz = frequency_hz
        self.max_instructions = max_instructions

        self.memory = SparseMemory()
        self.memory.load_image(image)
        self.htif = Htif()
        self.htif.attach(self.memory)
        self.hart = Hart(pc=image.entry, stack_pointer=stack_top)
        self.executor = Executor(
            self.hart,
            self.memory,
            csr_provider=self._read_counter,
            rocc=accelerator,
        )
        # Stop a batched Executor.run on the instruction that writes tohost.
        self.htif.on_exit = self.executor.request_halt
        self.cycles = 0
        self.instructions_retired = 0

    def _read_counter(self, address: int) -> int:
        # The model is exactly 1 CPI, so the live retire count is the cycle
        # count even mid-batch.
        if address in (csrdefs.CYCLE, csrdefs.MCYCLE, csrdefs.TIME,
                       csrdefs.INSTRET, csrdefs.MINSTRET):
            return self.executor.retired
        return 0

    def run(self) -> AtomicResult:
        """Run to completion; simulated time is cycles / frequency."""
        executor = self.executor
        htif = self.htif
        limit = self.max_instructions
        # Pure 1-CPI: no per-step timing input, run the threaded-code loop.
        while not htif.exited and not executor.exit_requested:
            remaining = limit - executor.retired
            if remaining <= 0:
                raise SimulationError(
                    f"instruction limit exceeded ({limit}); pc={self.hart.pc:#x}"
                )
            executor.run(remaining)
        self.instructions_retired = executor.retired
        self.cycles = executor.retired
        exit_code = htif.exit_code if htif.exited else executor.exit_code
        return AtomicResult(
            exit_code=exit_code,
            instructions_retired=self.instructions_retired,
            console_output=htif.console_output,
            symbols=dict(self.image.symbols),
            memory=self.memory,
            hart=self.hart,
            ticks=self.cycles,
            simulated_seconds=self.cycles / self.frequency_hz,
            frequency_hz=self.frequency_hz,
        )
