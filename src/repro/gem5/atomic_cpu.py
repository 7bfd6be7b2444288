"""AtomicSimpleCPU timing model.

Gem5's ``AtomicSimpleCPU`` advances simulated time by a fixed period per
instruction and performs memory accesses atomically (no cache timing, no
pipeline).  That is deliberately a much coarser model than the Rocket
emulator — the paper uses it only to show that the *dummy-function* speedup is
consistent across evaluation environments (Table VI), not to measure the
accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.isa import csr as csrdefs
from repro.sim.executor import Executor, TC_MEM
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
        memory_access_extra_cycles: int = 0,
        accelerator=None,
        stack_top: int = DEFAULT_STACK_TOP,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> None:
        self.image = image
        self.frequency_hz = frequency_hz
        self.memory_access_extra_cycles = memory_access_extra_cycles
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
        if address in (csrdefs.CYCLE, csrdefs.MCYCLE, csrdefs.TIME):
            # Without a memory penalty the model is exactly 1 CPI, so the
            # live executor count is the cycle count even mid-batch.
            if self.memory_access_extra_cycles:
                return self.cycles
            return self.executor.retired
        if address in (csrdefs.INSTRET, csrdefs.MINSTRET):
            return self.executor.retired
        return 0

    def run(self) -> AtomicResult:
        """Run to completion; simulated time is cycles / frequency."""
        executor = self.executor
        htif = self.htif
        limit = self.max_instructions
        extra = self.memory_access_extra_cycles
        if extra:
            # Memory accesses cost extra cycles.  The timing input per
            # instruction is just its *static* timing class, so instead of
            # the per-step ExecInfo protocol this loop drives the decode-once
            # ``_timed`` tables directly (the same batching the Rocket
            # emulator's interpreted loop uses): direct ops run their fast
            # closure, only CSR/trap/RoCC ops pay for the info path.
            hart = self.hart
            timed_get = executor._timed.get
            compile_ = executor._compile
            retired_base = executor.retired
            instructions = self.instructions_retired
            cycles = self.cycles
            done = 0
            try:
                while not htif.exited and not executor.exit_requested:
                    if instructions >= limit:
                        raise SimulationError(
                            f"instruction limit exceeded ({limit}); "
                            f"pc={hart.pc:#x}"
                        )
                    entry = timed_get(hart.pc)
                    if entry is None:
                        compile_(hart.pc)
                        entry = timed_get(hart.pc)
                    op, info, direct = entry
                    if direct:
                        # Direct ops are never TC_MEM (loads/stores keep
                        # the info path), so the cycle charge is flat.
                        hart.pc = op()
                        cycles += 1
                    else:
                        # Counter CSRs observe the live counts mid-batch.
                        executor.retired = retired_base + done
                        self.cycles = cycles
                        op()
                        cycles += 1
                        if info.timing_class == TC_MEM:
                            cycles += extra
                    instructions += 1
                    done += 1
            finally:
                self.cycles = cycles
                self.instructions_retired = instructions
                executor.retired = retired_base + done
        else:
            # Pure 1-CPI: no per-step info needed, run the threaded-code loop.
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
