"""RV64IM value semantics: one table that every execution engine renders.

Each register-writing instruction is a Python expression template over
named operands, each branch a condition template, each load a size and sign
bit, each store a size.  Both engines generate their code from these
entries instead of writing the instructions out themselves:

* the threaded-code executor (:meth:`repro.sim.executor.Executor._build`)
  exec-compiles one closure factory per mnemonic and closure (fast or
  info op), operands bound as closure cells;
* the Rocket timing tier (:mod:`repro.rocket.timing`) renders them over the
  register file.

Template placeholders:

``{a}`` / ``{b}``
    the rs1 / rs2 value (canonical unsigned 64-bit);
``{sa}`` / ``{sb}``
    the rs1 / rs2 value as a signed two's-complement integer;
``{imm}``
    the sign-extended immediate;
``{uimm}``
    the immediate masked to 64 bits;
``{pcimm}``
    ``pc + imm`` masked to 64 bits.

Templates may call the division helpers by their :data:`HELPERS` names, so
every renderer binds those names in the namespace its code runs in.
"""

from __future__ import annotations

from typing import NamedTuple

MASK64 = 0xFFFFFFFFFFFFFFFF
_SIGN64 = 1 << 63
_INT64_MIN = -(1 << 63)
_INT32_MIN = -(1 << 31)

#: Static timing classes, assigned to ``ExecInfo.timing_class`` at compile
#: time so the cycle-accurate models never need to classify mnemonics per step.
TC_OTHER = 0
TC_MEM = 1
TC_MUL = 2
TC_DIV = 3
TC_ROCC = 4
TC_JUMP = 5
TC_BRANCH = 6


# --------------------------------------------------------------------- helpers
def _signed32(value: int) -> int:
    value &= 0xFFFFFFFF
    return (value ^ 0x80000000) - 0x80000000


def div64(a: int, b: int) -> int:
    """RV64 ``div``: C-style truncation, -1 on /0, INT_MIN on overflow."""
    sa = (a ^ _SIGN64) - _SIGN64
    sb = (b ^ _SIGN64) - _SIGN64
    if sb == 0:
        return MASK64
    if sa == _INT64_MIN and sb == -1:
        return a
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & MASK64


def rem64(a: int, b: int) -> int:
    sa = (a ^ _SIGN64) - _SIGN64
    sb = (b ^ _SIGN64) - _SIGN64
    if sb == 0:
        return sa & MASK64
    if sa == _INT64_MIN and sb == -1:
        return 0
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return (sa - sb * quotient) & MASK64


def div32(a: int, b: int) -> int:
    sa = _signed32(a)
    sb = _signed32(b)
    if sb == 0:
        return MASK64
    if sa == _INT32_MIN and sb == -1:
        return _INT32_MIN & MASK64
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return _signed32(quotient) & MASK64


def rem32(a: int, b: int) -> int:
    sa = _signed32(a)
    sb = _signed32(b)
    if sb == 0:
        return _signed32(sa) & MASK64
    if sa == _INT32_MIN and sb == -1:
        return 0
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return _signed32(sa - sb * quotient) & MASK64


#: Names under which templates call the division helpers.
HELPERS = {"d64": div64, "r64": rem64, "d32": div32, "r32": rem32}


def signed(expr: str) -> str:
    """Source text of ``expr`` (a canonical 64-bit value) read as signed."""
    return f"(({expr} ^ 0x8000000000000000) - 0x8000000000000000)"


def _s32(expr: str) -> str:
    return f"(({expr} & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000"


def _w32(expr: str) -> str:
    """A 32-bit result sign-extended to a canonical 64-bit value."""
    return f"({_s32(f'({expr})')}) & 0xFFFFFFFFFFFFFFFF"


class Op(NamedTuple):
    """One table entry: an expression template and its timing class."""

    template: str
    timing_class: int = TC_OTHER


class Load(NamedTuple):
    """A load: access size in bytes and the sign bit to extend (0: none)."""

    size: int
    sign: int

    def extend(self, expr: str) -> str:
        """Source text of the register value for loaded bits ``expr``."""
        if not self.sign:
            return expr
        return f"(({expr} ^ {self.sign:#x}) - {self.sign:#x}) & 0xFFFFFFFFFFFFFFFF"


_M = "0xFFFFFFFFFFFFFFFF"

#: Register-writing instructions whose only effect is ``rd = template``;
#: with ``rd == x0`` they are a no-op.
ALU = {
    "add": Op(f"({{a}} + {{b}}) & {_M}"),
    "addi": Op(f"({{a}} + {{imm}}) & {_M}"),
    "sub": Op(f"({{a}} - {{b}}) & {_M}"),
    "and": Op("{a} & {b}"),
    "andi": Op("{a} & {uimm}"),
    "or": Op("{a} | {b}"),
    "ori": Op("{a} | {uimm}"),
    "xor": Op("{a} ^ {b}"),
    "xori": Op("{a} ^ {uimm}"),
    "sll": Op(f"({{a}} << ({{b}} & 0x3F)) & {_M}"),
    "slli": Op(f"({{a}} << {{imm}}) & {_M}"),
    "srl": Op("{a} >> ({b} & 0x3F)"),
    "srli": Op("{a} >> {imm}"),
    "sra": Op(f"({{sa}} >> ({{b}} & 0x3F)) & {_M}"),
    "srai": Op(f"({{sa}} >> {{imm}}) & {_M}"),
    "slt": Op("1 if {sa} < {sb} else 0"),
    "slti": Op("1 if {sa} < {imm} else 0"),
    "sltu": Op("1 if {a} < {b} else 0"),
    "sltiu": Op("1 if {a} < {uimm} else 0"),
    # RV64 word ops
    "addw": Op(_w32("{a} + {b}")),
    "addiw": Op(_w32("{a} + {imm}")),
    "subw": Op(_w32("{a} - {b}")),
    "sllw": Op(_w32("{a} << ({b} & 0x1F)")),
    "slliw": Op(_w32("{a} << {imm}")),
    "srlw": Op(_w32("({a} & 0xFFFFFFFF) >> ({b} & 0x1F)")),
    "srliw": Op(_w32("({a} & 0xFFFFFFFF) >> {imm}")),
    "sraw": Op(f"(({_s32('{a}')}) >> ({{b}} & 0x1F)) & {_M}"),
    "sraiw": Op(f"(({_s32('{a}')}) >> {{imm}}) & {_M}"),
    # M extension
    "mul": Op(f"({{a}} * {{b}}) & {_M}", TC_MUL),
    "mulh": Op(f"(({{sa}} * {{sb}}) >> 64) & {_M}", TC_MUL),
    "mulhu": Op("({a} * {b}) >> 64", TC_MUL),
    "mulhsu": Op(f"(({{sa}} * {{b}}) >> 64) & {_M}", TC_MUL),
    "mulw": Op(_w32("{a} * {b}"), TC_MUL),
    "div": Op("d64({a}, {b})", TC_DIV),
    "divu": Op(f"{_M} if {{b}} == 0 else {{a}} // {{b}}", TC_DIV),
    "rem": Op("r64({a}, {b})", TC_DIV),
    "remu": Op("{a} if {b} == 0 else {a} % {b}", TC_DIV),
    "divw": Op("d32({a}, {b})", TC_DIV),
    "divuw": Op(
        f"{_M} if ({{b}} & 0xFFFFFFFF) == 0 else "
        + _w32("({a} & 0xFFFFFFFF) // ({b} & 0xFFFFFFFF)"),
        TC_DIV,
    ),
    "remw": Op("r32({a}, {b})", TC_DIV),
    "remuw": Op(
        _w32("{a} & 0xFFFFFFFF")
        + " if ({b} & 0xFFFFFFFF) == 0 else "
        + _w32("({a} & 0xFFFFFFFF) % ({b} & 0xFFFFFFFF)"),
        TC_DIV,
    ),
    # upper immediates
    "lui": Op("{uimm}"),
    "auipc": Op("{pcimm}"),
}

#: Conditional branches: the template is the taken condition.
BRANCHES = {
    "beq": Op("{a} == {b}", TC_BRANCH),
    "bne": Op("{a} != {b}", TC_BRANCH),
    "blt": Op("{sa} < {sb}", TC_BRANCH),
    "bge": Op("{sa} >= {sb}", TC_BRANCH),
    "bltu": Op("{a} < {b}", TC_BRANCH),
    "bgeu": Op("{a} >= {b}", TC_BRANCH),
}

LOADS = {
    "ld": Load(8, 0),
    "lw": Load(4, 0x80000000),
    "lwu": Load(4, 0),
    "lh": Load(2, 0x8000),
    "lhu": Load(2, 0),
    "lb": Load(1, 0x80),
    "lbu": Load(1, 0),
}

#: Stores: access size in bytes.
STORES = {"sd": 8, "sw": 4, "sh": 2, "sb": 1}
