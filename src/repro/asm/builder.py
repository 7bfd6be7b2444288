"""Programmatic assembler.

:class:`AsmBuilder` is the assembler the kernel generators
(:mod:`repro.kernels`) call.  It emits real RV64 machine code into a
:class:`~repro.asm.program.Program`, records label fix-ups, and can link
itself into an :class:`~repro.asm.program.Image` in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AssemblerError
from repro.isa import csr as csrdefs
from repro.isa.encoder import encode_instruction
from repro.isa.registers import parse_register
from repro.isa.rocc import DecimalFunct, RoccInstruction
from repro.asm.program import (
    DEFAULT_DATA_BASE,
    DEFAULT_TEXT_BASE,
    Program,
)

TEXT = ".text"
DATA = ".data"


@dataclass
class Fixup:
    """A placeholder instruction to be patched once addresses are known."""

    section: str
    offset: int
    kind: str  # "branch" | "jal" | "la"
    label: str
    mnemonic: str = ""
    rd: int = 0
    rs1: int = 0
    rs2: int = 0


class AsmBuilder:
    """Emit RV64 instructions and data, then link into a flat image."""

    def __init__(self, program: Program = None) -> None:
        self.program = program if program is not None else Program()
        self.fixups = []
        self._section = TEXT
        # Ensure deterministic section ordering: text first, then data.
        self.program.section(TEXT)
        self.program.section(DATA)

    # ------------------------------------------------------------------ state
    @property
    def current_section(self):
        return self.program.section(self._section)

    def text(self) -> "AsmBuilder":
        """Switch emission to the text section."""
        self._section = TEXT
        return self

    def data(self) -> "AsmBuilder":
        """Switch emission to the data section."""
        self._section = DATA
        return self

    def label(self, name: str) -> str:
        """Define ``name`` at the current position of the current section."""
        self.program.define_symbol(name, self._section, len(self.current_section))
        return name

    def here(self) -> int:
        """Byte offset of the next emission in the current section."""
        return len(self.current_section)

    # ------------------------------------------------------------- raw emits
    def emit_word(self, word: int) -> int:
        """Append a raw 32-bit instruction word to the current section."""
        return self.current_section.append_word(word)

    def emit(self, mnemonic: str, *operands) -> int:
        """Encode and append an instruction; register operands may be names."""
        resolved = []
        for operand in operands:
            if isinstance(operand, str):
                resolved.append(parse_register(operand))
            else:
                resolved.append(operand)
        return self.emit_word(encode_instruction(mnemonic, *resolved))

    # ---------------------------------------------------- label-target emits
    def branch(self, mnemonic: str, rs1, rs2, label: str) -> int:
        """Emit a conditional branch to ``label`` (patched at link time)."""
        offset = self.emit_word(0)
        self.fixups.append(
            Fixup(
                section=self._section,
                offset=offset,
                kind="branch",
                label=label,
                mnemonic=mnemonic,
                rs1=parse_register(rs1),
                rs2=parse_register(rs2),
            )
        )
        return offset

    def jal(self, rd, label: str) -> int:
        """Emit ``jal rd, label`` (patched at link time)."""
        offset = self.emit_word(0)
        self.fixups.append(
            Fixup(
                section=self._section,
                offset=offset,
                kind="jal",
                label=label,
                rd=parse_register(rd),
            )
        )
        return offset

    def j(self, label: str) -> int:
        """Unconditional jump (``jal x0, label``)."""
        return self.jal(0, label)

    def call(self, label: str) -> int:
        """Call a subroutine (``jal ra, label``)."""
        return self.jal(1, label)

    def la(self, rd, symbol: str) -> int:
        """Load the absolute address of ``symbol`` (``lui`` + ``addi`` pair)."""
        rd = parse_register(rd)
        offset = self.emit_word(0)
        self.emit_word(0)
        self.fixups.append(
            Fixup(
                section=self._section,
                offset=offset,
                kind="la",
                label=symbol,
                rd=rd,
            )
        )
        return offset

    # --------------------------------------------------------------- pseudos
    def nop(self) -> int:
        return self.emit("addi", 0, 0, 0)

    def mv(self, rd, rs) -> int:
        return self.emit("addi", rd, rs, 0)

    def ret(self) -> int:
        return self.emit("jalr", 0, 1, 0)

    def jr(self, rs) -> int:
        return self.emit("jalr", 0, rs, 0)

    def not_(self, rd, rs) -> int:
        return self.emit("xori", rd, rs, -1)

    def neg(self, rd, rs) -> int:
        return self.emit("sub", rd, 0, rs)

    def seqz(self, rd, rs) -> int:
        return self.emit("sltiu", rd, rs, 1)

    def snez(self, rd, rs) -> int:
        return self.emit("sltu", rd, 0, rs)

    def beqz(self, rs, label: str) -> int:
        return self.branch("beq", rs, 0, label)

    def bnez(self, rs, label: str) -> int:
        return self.branch("bne", rs, 0, label)

    def bgtz(self, rs, label: str) -> int:
        return self.branch("blt", 0, rs, label)

    def blez(self, rs, label: str) -> int:
        return self.branch("bge", 0, rs, label)

    def li(self, rd, value: int) -> None:
        """Materialise an arbitrary 64-bit constant into ``rd``.

        Uses the conventional ``lui``/``addi`` pair for 32-bit values and a
        shift/add chain for wider constants (at most 8 instructions).
        """
        rd = parse_register(rd)
        value_signed = ((value & 0xFFFFFFFFFFFFFFFF) ^ (1 << 63)) - (1 << 63)
        self._li_signed(rd, value_signed)

    def _li_signed(self, rd: int, value: int) -> None:
        if -2048 <= value <= 2047:
            self.emit("addi", rd, 0, value)
            return
        if -(1 << 31) <= value < (1 << 31):
            hi = (value + 0x800) >> 12
            lo = value - (hi << 12)
            # lui sign-extends bit 31; the +0x800 adjustment keeps hi in range.
            self.emit("lui", rd, hi & 0xFFFFF)
            if lo:
                self.emit("addiw", rd, rd, lo)
            else:
                # Ensure canonical sign extension of the 32-bit value.
                self.emit("addiw", rd, rd, 0)
            return
        lo12 = ((value & 0xFFF) ^ 0x800) - 0x800
        upper = (value - lo12) >> 12
        self._li_signed(rd, upper)
        self.emit("slli", rd, rd, 12)
        if lo12:
            self.emit("addi", rd, rd, lo12)

    # ------------------------------------------------------------------ CSRs
    def csrr(self, rd, csr_addr: int) -> int:
        """Read a CSR (``csrrs rd, csr, x0``)."""
        return self.emit("csrrs", rd, csr_addr, 0)

    def rdcycle(self, rd) -> int:
        """The paper's measurement primitive: read the cycle counter."""
        return self.csrr(rd, csrdefs.CYCLE)

    def rdinstret(self, rd) -> int:
        return self.csrr(rd, csrdefs.INSTRET)

    # ------------------------------------------------------------------ RoCC
    def rocc(
        self,
        function,
        rd=0,
        rs1=0,
        rs2=0,
        xd: bool = False,
        xs1: bool = False,
        xs2: bool = False,
        custom: int = 0,
    ) -> int:
        """Emit a RoCC custom instruction.

        ``function`` is either a Table II mnemonic (``"DEC_ADD"``) or a raw
        ``funct7`` value.
        """
        if isinstance(function, str):
            try:
                funct7 = DecimalFunct.BY_NAME[function.upper()]
            except KeyError:
                raise AssemblerError(
                    f"unknown accelerator function: {function!r}"
                ) from None
        else:
            funct7 = int(function)
        instruction = RoccInstruction(
            funct7=funct7,
            rd=parse_register(rd),
            rs1=parse_register(rs1),
            rs2=parse_register(rs2),
            xd=xd,
            xs1=xs1,
            xs2=xs2,
            custom=custom,
        )
        return self.emit_word(instruction.encode())

    # ------------------------------------------------------------------ data
    def dword(self, *values) -> int:
        """Append 64-bit little-endian data words; returns the first offset."""
        first = None
        for value in values:
            offset = self.current_section.append_dword(value)
            if first is None:
                first = offset
        return first if first is not None else self.here()

    def word(self, *values) -> int:
        """Append 32-bit little-endian data words; returns the first offset."""
        first = None
        for value in values:
            offset = self.current_section.append_word(value)
            if first is None:
                first = offset
        return first if first is not None else self.here()

    def byte(self, *values) -> int:
        first = None
        for value in values:
            offset = self.current_section.append_bytes(bytes([value & 0xFF]))
            if first is None:
                first = offset
        return first if first is not None else self.here()

    def asciz(self, string: str) -> int:
        return self.current_section.append_bytes(string.encode("ascii") + b"\x00")

    def space(self, count: int, fill: int = 0) -> int:
        return self.current_section.append_bytes(bytes([fill & 0xFF]) * count)

    def align(self, boundary: int) -> None:
        self.current_section.align(boundary)

    # ------------------------------------------------- stack-frame utilities
    def prologue(self, saved_registers=("ra",), extra_bytes: int = 0) -> int:
        """Standard function prologue: allocate a frame and save registers."""
        saved = [parse_register(reg) for reg in saved_registers]
        frame = (len(saved) * 8 + extra_bytes + 15) // 16 * 16
        self.emit("addi", 2, 2, -frame)
        for index, reg in enumerate(saved):
            self.emit("sd", reg, 2, index * 8)
        return frame

    def epilogue(self, saved_registers=("ra",), extra_bytes: int = 0) -> None:
        """Matching epilogue: restore registers, free the frame and return."""
        saved = [parse_register(reg) for reg in saved_registers]
        frame = (len(saved) * 8 + extra_bytes + 15) // 16 * 16
        for index, reg in enumerate(saved):
            self.emit("ld", reg, 2, index * 8)
        self.emit("addi", 2, 2, frame)
        self.ret()

    # ------------------------------------------------------------------ link
    def link(
        self,
        text_base: int = DEFAULT_TEXT_BASE,
        data_base: int = DEFAULT_DATA_BASE,
        entry_symbol: str = None,
    ):
        """Lay out sections, resolve fix-ups and return an Image."""
        from repro.asm.linker import Linker

        if entry_symbol is not None:
            self.program.entry_symbol = entry_symbol
        linker = Linker(text_base=text_base, data_base=data_base)
        return linker.link(self.program, self.fixups)
