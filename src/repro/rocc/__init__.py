"""RoCC (Rocket Custom Coprocessor) accelerator framework.

Implements the paper's Fig. 4 architecture in software: the command/response
interface between the Rocket core and an accelerator
(:meth:`Accelerator.execute`, one call per command), an accelerator register
set, and the decimal accelerator that executes the Table II instruction set
(WR/RD/LD/ACCUM/CLR_ALL/DEC_CNV/DEC_ADD/DEC_MUL/DEC_ACCUM and the operation
extensions) through one decode table keyed by ``funct7``.  The interface FSM
of Fig. 5 survives as the closed-form busy cycles of each table row, and
:class:`AcceleratorPipeline` generalises its blocking timing into a staged
datapath.
"""

from repro.rocc.interface import Accelerator, CommandRow
from repro.rocc.pipeline import AcceleratorPipeline, split_busy_cycles
from repro.rocc.regfile import AcceleratorRegisterFile
from repro.rocc.decimal_accel import DecimalAccelerator, DecimalAcceleratorConfig

__all__ = [
    "Accelerator",
    "CommandRow",
    "AcceleratorPipeline",
    "split_busy_cycles",
    "AcceleratorRegisterFile",
    "DecimalAccelerator",
    "DecimalAcceleratorConfig",
]
