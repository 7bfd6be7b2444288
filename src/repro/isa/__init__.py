"""RISC-V instruction-set architecture layer.

This subpackage defines the subset of RV64 needed by the evaluation framework:

* the RV64I base integer ISA,
* the M extension (multiply/divide),
* the Zicsr extension (CSR access, used for ``RDCYCLE``/``RDINSTRET``),
* the four ``custom-0`` .. ``custom-3`` opcodes used by RoCC accelerators,
  with the paper's decimal instruction set (Table II) layered on top.

The layer is mostly about *representation*: encoding mnemonics + operands
into 32-bit machine words and decoding machine words back.  The one
exception is :mod:`repro.isa.semantics`, the table of RV64IM value semantics
that every simulator tier renders its code from; execution itself lives in
:mod:`repro.sim` (functional) and :mod:`repro.rocket` (timing).
"""

from repro.isa.registers import (
    ABI_NAMES,
    REGISTER_COUNT,
    parse_register,
    register_abi_name,
)
from repro.isa.instructions import Decoded, InstrFormat
from repro.isa.encoder import encode_instruction
from repro.isa.decoder import decode_instruction
from repro.isa.rocc import (
    DecimalFunct,
    RoccInstruction,
    CUSTOM_OPCODES,
)
from repro.isa import csr

__all__ = [
    "ABI_NAMES",
    "REGISTER_COUNT",
    "parse_register",
    "register_abi_name",
    "Decoded",
    "InstrFormat",
    "encode_instruction",
    "decode_instruction",
    "DecimalFunct",
    "RoccInstruction",
    "CUSTOM_OPCODES",
    "csr",
]
