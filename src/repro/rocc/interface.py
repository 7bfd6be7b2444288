"""RoCC command interface between the core and an accelerator.

The real RoCC interface has three default signal groups (Section IV-A of the
paper): core control, the register-mode command/response channel, and the
memory-mode channel to the L1 D-cache.  :meth:`Accelerator.execute` is the
register-mode channel -- one call per command, answering
``(has_response, value, busy_cycles)`` -- and the memory channel is the
simulated memory handed in with the command.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple

from repro.errors import AcceleratorError
from repro.rocc.pipeline import AcceleratorPipeline

#: Bits of a command's flag index ``xd << 2 | xs1 << 1 | xs2``.
XD, XS1, XS2 = 4, 2, 1

_FLAG_MEANINGS = (
    (XD, "a response register (xd)"),
    (XS1, "the rs1 value from the core (xs1)"),
    (XS2, "the rs2 value from the core (xs2)"),
)


class CommandRow(NamedTuple):
    """How :meth:`Accelerator.execute` runs one accelerator function.

    ``handler(rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory)``
    applies the function's architectural effects and returns the value for
    the response channel.  ``needs`` holds the flag bits every command of
    the function must carry, and ``responds`` whether it answers the core
    when ``xd`` is set.  ``busy`` holds the command's occupancy in cycles
    for each of the eight flag indices: it depends only on the accelerator
    configuration, so it is computed once, when the table is built.
    """

    name: str
    handler: Callable
    needs: int
    responds: bool
    busy: tuple


class Accelerator:
    """Base class for RoCC accelerators.

    Subclasses fill :attr:`commands`, a table keyed by ``funct7``.
    :meth:`execute` is the one per-command entry point of every simulator;
    subclasses do not override it.
    """

    name = "accelerator"

    def __init__(self) -> None:
        #: funct7 -> :class:`CommandRow`.
        self.commands = {}
        #: Command occupancy model threaded through the Rocket timing
        #: model; the 1-deep, 1-wide default is a blocking accelerator.
        self.pipeline = AcceleratorPipeline()
        self.commands_executed = 0
        self.busy_cycles_total = 0
        self.responses_sent = 0
        #: Executed commands per function name.
        self.function_counts = Counter()

    def execute(
        self,
        funct7: int,
        rd: int,
        rs1: int,
        rs2: int,
        rs1_value: int,
        rs2_value: int,
        xd: bool,
        xs1: bool,
        xs2: bool,
        memory,
    ) -> tuple:
        """Run one command; return ``(has_response, value, busy_cycles)``."""
        row = self.commands.get(funct7)
        if row is None:
            raise AcceleratorError(f"unknown accelerator function funct7={funct7:#04x}")
        flags = xd << 2 | xs1 << 1 | xs2
        missing = row.needs & ~flags
        if missing:
            raise AcceleratorError(f"{row.name} needs " + ", ".join(
                meaning for bit, meaning in _FLAG_MEANINGS if missing & bit
            ))
        value = row.handler(rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory)
        busy = row.busy[flags]
        self.commands_executed += 1
        self.busy_cycles_total += busy
        self.function_counts[row.name] += 1
        if row.responds and xd:
            self.responses_sent += 1
            return True, value, busy
        return False, value, busy

    def reset(self) -> None:
        """Reset the counters and the pipeline's issue slots."""
        self.commands_executed = 0
        self.busy_cycles_total = 0
        self.responses_sent = 0
        self.function_counts.clear()
        self.pipeline.reset()
