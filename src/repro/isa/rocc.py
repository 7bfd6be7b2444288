"""RoCC custom instruction encoding (paper Fig. 3 and Tables II/III).

A RoCC instruction is an R-type word on one of the ``custom-0`` ..
``custom-3`` opcodes.  The ``funct7`` field selects the accelerator function;
three flag bits ``xd``, ``xs1`` and ``xs2`` say whether the Rocket core's
integer registers are used for the destination / source operands (and hence
whether the core must synchronise with the accelerator):

======  ===========================================================
field   meaning
======  ===========================================================
funct7  accelerator function selector (Table II)
rs1/rs2 source register numbers (core registers when xs1/xs2 = 1,
        otherwise accelerator register-file addresses)
rd      destination register number (core register when xd = 1)
xd      1 -> the core waits for a response written to ``rd``
xs1     1 -> ``rs1`` value is transferred with the command
xs2     1 -> ``rs2`` value is transferred with the command
======  ===========================================================

Note on Table III of the paper: the printed opcode column reads ``0010111``
which collides with the standard ``AUIPC`` opcode; the actual Rocket RoCC
opcodes are ``custom-0`` = ``0001011`` (0x0B) .. ``custom-3`` = ``1111011``
(0x7B).  We use the architecturally correct custom opcodes and record the
discrepancy in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EncodingError
from repro.isa.encoding import bits
from repro.isa.instructions import CUSTOM_OPCODE_LIST

#: custom index -> major opcode
CUSTOM_OPCODES = {i: op for i, op in enumerate(CUSTOM_OPCODE_LIST)}
#: major opcode -> custom index
OPCODE_TO_CUSTOM = {op: i for i, op in CUSTOM_OPCODES.items()}


class DecimalFunct:
    """``funct7`` values of the decimal accelerator instructions (Table II)."""

    WR = 0b0000000        # write a value to an accelerator register
    RD = 0b0000001        # read a value from an accelerator register
    LD = 0b0000010        # load a value from memory into the accelerator
    ACCUM = 0b0000011     # accumulate a binary value into an accel register
    DEC_ADD = 0b0000100   # BCD addition of two operands
    CLR_ALL = 0b0000101   # clear the whole accelerator register set
    DEC_CNV = 0b0000110   # convert a binary number to BCD
    DEC_MUL = 0b0000111   # multiply two BCD numbers
    DEC_ACCUM = 0b0001000  # accumulate BCD values held in internal registers
    DEC_ADDSUB = 0b0001001  # BCD subtraction (nines-complement add, borrow out)
    DEC_FMA_ACC = 0b0001010  # add a shifted register into the wide accumulator
    DEC_ADDC = 0b0001011   # chunked BCD add, carry chained through status
    DEC_SUBB = 0b0001100   # chunked BCD subtract, borrow chained through status

    #: mnemonic -> funct7 (used by the assembler and the Table II/III bench)
    BY_NAME = {
        "WR": WR,
        "RD": RD,
        "LD": LD,
        "ACCUM": ACCUM,
        "DEC_ADD": DEC_ADD,
        "CLR_ALL": CLR_ALL,
        "DEC_CNV": DEC_CNV,
        "DEC_MUL": DEC_MUL,
        "DEC_ACCUM": DEC_ACCUM,
        "DEC_ADDSUB": DEC_ADDSUB,
        "DEC_FMA_ACC": DEC_FMA_ACC,
        "DEC_ADDC": DEC_ADDC,
        "DEC_SUBB": DEC_SUBB,
    }

    #: funct7 -> mnemonic
    BY_VALUE = {value: name for name, value in BY_NAME.items()}

    #: one-line descriptions, as printed in Table II of the paper (the two
    #: rows past DEC_ACCUM are this framework's operation-axis extensions).
    DESCRIPTIONS = {
        "WR": "Write a value to a register in Rocket core",
        "RD": "Read a value from a register in Rocket core",
        "LD": "Load a value from a memory",
        "ACCUM": "Accumulate a value into a register in Rocket core",
        "DEC_CNV": "Convert binary number to corresponding BCD",
        "DEC_MUL": "Multiply two BCD numbers",
        "DEC_ADD": "Add two BCD numbers",
        "DEC_ACCUM": "Accumulate BCD numbers stored in internal registers",
        "CLR_ALL": "Clear all internal accelerator registers",
        "DEC_ADDSUB": "Subtract two BCD numbers (borrow out via status)",
        "DEC_FMA_ACC": "Add a shifted BCD register into the accumulator",
        "DEC_ADDC": "Add two BCD words with carry chained through status",
        "DEC_SUBB": "Subtract two BCD words with borrow chained through status",
    }

    @classmethod
    def name_for(cls, funct7: int) -> str:
        """Stable symbolic name for any ``funct7`` value.

        Known Table II functions render by mnemonic; everything else gets
        the deterministic ``FUNCT_n`` spelling, so renderers and traces
        never assume the Table II set is closed.
        """
        return cls.BY_VALUE.get(funct7, f"FUNCT_{funct7}")


@dataclass(frozen=True)
class RoccInstruction:
    """A fully specified RoCC instruction (pre-encoding form)."""

    funct7: int
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    xd: bool = False
    xs1: bool = False
    xs2: bool = False
    custom: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.funct7 <= 0x7F:
            raise EncodingError(f"funct7 out of range: {self.funct7}")
        for name in ("rd", "rs1", "rs2"):
            value = getattr(self, name)
            if not 0 <= value <= 31:
                raise EncodingError(f"{name} out of range: {value}")
        if self.custom not in CUSTOM_OPCODES:
            raise EncodingError(f"custom opcode index out of range: {self.custom}")

    def encode(self) -> int:
        """Return the 32-bit machine word for this instruction."""
        opcode = CUSTOM_OPCODES[self.custom]
        return (
            (self.funct7 & 0x7F) << 25
            | (self.rs2 & 0x1F) << 20
            | (self.rs1 & 0x1F) << 15
            | (int(self.xd) & 1) << 14
            | (int(self.xs1) & 1) << 13
            | (int(self.xs2) & 1) << 12
            | (self.rd & 0x1F) << 7
            | opcode
        )

    @classmethod
    def decode(cls, word: int) -> "RoccInstruction":
        """Decode a 32-bit machine word on a custom opcode."""
        opcode = word & 0x7F
        if opcode not in OPCODE_TO_CUSTOM:
            raise EncodingError(f"not a custom opcode: 0x{opcode:02x}")
        return cls(
            funct7=bits(word, 31, 25),
            rs2=bits(word, 24, 20),
            rs1=bits(word, 19, 15),
            xd=bool(bits(word, 14, 14)),
            xs1=bool(bits(word, 13, 13)),
            xs2=bool(bits(word, 12, 12)),
            rd=bits(word, 11, 7),
            custom=OPCODE_TO_CUSTOM[opcode],
        )

    @property
    def function_name(self) -> str:
        """Symbolic name of ``funct7`` if it is a known decimal function."""
        return DecimalFunct.name_for(self.funct7)

    def hex_word(self) -> str:
        """Hex literal of the encoded word, in the paper's ``0x...`` style."""
        return f"0x{self.encode():08X}"


def decimal_instruction(
    name: str,
    rd: int = 0,
    rs1: int = 0,
    rs2: int = 0,
    xd: bool = False,
    xs1: bool = False,
    xs2: bool = False,
    custom: int = 0,
) -> RoccInstruction:
    """Build a :class:`RoccInstruction` from a Table II mnemonic."""
    key = name.upper()
    if key not in DecimalFunct.BY_NAME:
        import difflib

        close = difflib.get_close_matches(key, DecimalFunct.BY_NAME, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise EncodingError(
            f"unknown decimal accelerator function: {name!r} "
            f"(known mnemonics: {', '.join(DecimalFunct.BY_NAME)}){hint}"
        )
    return RoccInstruction(
        funct7=DecimalFunct.BY_NAME[key],
        rd=rd,
        rs1=rs1,
        rs2=rs2,
        xd=xd,
        xs1=xs1,
        xs2=xs2,
        custom=custom,
    )
