"""SPIKE-like functional ISA simulator.

Used exactly as in the paper's flow (Fig. 2): the RISC-V binary is first run
here for *functional verification* — the results written to memory are checked
against the golden decimal library — before the cycle-accurate Rocket model is
used for performance numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.isa import csr as csrdefs
from repro.sim.executor import Executor
from repro.sim.hart import DEFAULT_STACK_TOP, Hart
from repro.sim.htif import Htif
from repro.sim.memory import SparseMemory

#: Safety net against runaway programs (misassembled loops and the like).
DEFAULT_MAX_INSTRUCTIONS = 50_000_000

#: Counter CSRs that read the retire count (cycles included, at 1 CPI).
COUNTER_CSRS = (
    csrdefs.CYCLE, csrdefs.MCYCLE, csrdefs.TIME,
    csrdefs.INSTRET, csrdefs.MINSTRET,
)


@dataclass
class SimulationResult:
    """Outcome of one functional simulation run."""

    exit_code: int
    instructions_retired: int
    console_output: str
    symbols: dict = field(default_factory=dict)
    #: the live memory, so callers can read back result buffers
    memory: SparseMemory = None
    hart: Hart = None

    def read_dword(self, symbol_or_address, index: int = 0) -> int:
        """Read a 64-bit result; ``symbol_or_address`` may be a symbol name."""
        address = self._resolve(symbol_or_address)
        return self.memory.read_dword(address + 8 * index)

    def read_dwords(self, symbol_or_address, count: int) -> list:
        address = self._resolve(symbol_or_address)
        return [self.memory.read_dword(address + 8 * i) for i in range(count)]

    def _resolve(self, symbol_or_address) -> int:
        if isinstance(symbol_or_address, str):
            try:
                return self.symbols[symbol_or_address]
            except KeyError:
                raise SimulationError(
                    f"unknown symbol {symbol_or_address!r}"
                ) from None
        return symbol_or_address


class SpikeSimulator:
    """Functional RV64 simulator with HTIF exit/console support."""

    def __init__(
        self,
        image,
        accelerator=None,
        stack_top: int = DEFAULT_STACK_TOP,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> None:
        self.image = image
        self.memory = SparseMemory()
        self.memory.load_image(image)
        self.htif = Htif()
        self.htif.attach(self.memory)
        self.hart = Hart(pc=image.entry, stack_pointer=stack_top)
        self.stack_top = stack_top
        self.max_instructions = max_instructions
        self.instructions_retired = 0
        self.accelerator = accelerator
        self.executor = Executor(
            self.hart,
            self.memory,
            csr_provider=self._read_counter,
            rocc=accelerator,
        )
        # Stop a batched Executor.run on the instruction that writes tohost.
        self.htif.on_exit = self.executor.request_halt

    # ---------------------------------------------------------------- counters
    def _read_counter(self, address: int) -> int:
        # The functional model has no timing: one cycle per instruction.
        return self.executor.retired if address in COUNTER_CSRS else 0

    # ------------------------------------------------------------------- reset
    def reset(self) -> None:
        """Rewind architectural state for another run, keeping the engine warm.

        Everything the executor *learned* survives: decoded instructions,
        their closures and the superblocks threading them.  Everything
        architectural is rewound to construction state: registers (mutated
        in place — the closures bind the register list by object
        identity), pc, HTIF exit/console state, the executor's halt flags
        and retire counter, and the accelerator's architectural state.

        Memory contents are *not* touched; callers running new operand
        vectors must rewrite the operand region and zero the result buffers
        first (see :class:`repro.sim.batch.BatchRunner`, which owns that
        protocol).
        """
        hart = self.hart
        regs = hart.regs
        regs[:] = [0] * len(regs)
        regs[2] = self.stack_top
        hart.pc = self.image.entry
        self.htif.reset()
        executor = self.executor
        executor.stop = False
        executor.exit_requested = False
        executor.exit_code = 0
        executor.retired = 0
        self.instructions_retired = 0
        if self.accelerator is not None:
            self.accelerator.reset()

    # --------------------------------------------------------------------- run
    def run(self) -> SimulationResult:
        """Run until the program exits (HTIF or exit ecall)."""
        return self._run_to_exit(SimulationResult)

    def _run_to_exit(self, result_type, **fields):
        """The run loop behind :meth:`run`; returns a ``result_type``.

        Subclasses with a richer result call this rather than
        ``SpikeSimulator.run``, which perfbench's tracer times as the spike
        layer.
        """
        executor = self.executor
        htif = self.htif
        limit = self.max_instructions
        while not htif.exited and not executor.exit_requested:
            remaining = limit - executor.retired
            if remaining <= 0:
                raise SimulationError(
                    f"instruction limit exceeded ({limit}); "
                    f"pc={self.hart.pc:#x} — runaway program?"
                )
            executor.run(remaining)
        self.instructions_retired = executor.retired
        exit_code = htif.exit_code if htif.exited else executor.exit_code
        return result_type(
            exit_code=exit_code,
            instructions_retired=self.instructions_retired,
            console_output=htif.console_output,
            symbols=dict(self.image.symbols),
            memory=self.memory,
            hart=self.hart,
            **fields,
        )


def run_image(image, accelerator=None, **kwargs) -> SimulationResult:
    """Convenience one-shot functional run of a linked image."""
    return SpikeSimulator(image, accelerator=accelerator, **kwargs).run()
