"""Direct unit tests for the threaded-code :class:`~repro.sim.executor.Executor`.

These drive the executor against hand-encoded instruction words, without the
assembler/linker/HTIF stack, covering RV64IM semantics that the kernel runs
only exercise indirectly: shift-amount masking, signed division overflow and
divide-by-zero results, load sign extension — plus behaviours specific to the
threaded-code engine (batched ``run``, per-PC ``ExecInfo`` reuse, and
self-modifying-code invalidation).

``TestSemanticsOracle`` checks every RV64IM value instruction against
expected values written from the RISC-V spec, on the executor's ``step()``
and in a compiled Rocket timing span.  Both render one semantics table, so
their lockstep suites cannot catch a wrong expression in it; this oracle
can.
"""

from __future__ import annotations

import pytest

from repro.asm.builder import AsmBuilder
from repro.asm.program import TOHOST_ADDRESS
from repro.errors import TrapError
from repro.isa import instructions as isa
from repro.isa.encoder import encode_instruction
from repro.sim.executor import Executor, TC_BRANCH, TC_JUMP, TC_MEM
from repro.sim.hart import Hart
from repro.sim.memory import SparseMemory
from tests.test_timing_tier import _assert_identical

MASK64 = 0xFFFFFFFFFFFFFFFF
BASE = 0x1000
INT64_MIN = 1 << 63          # two's-complement pattern of -2**63
INT32_MIN = 0xFFFFFFFF80000000  # sign-extended -2**31


def make_executor(words, regs=None):
    """Place encoded words at ``BASE`` and return a ready executor."""
    memory = SparseMemory()
    for index, word in enumerate(words):
        memory.write(BASE + 4 * index, 4, word)
    hart = Hart(pc=BASE)
    if regs:
        for reg, value in regs.items():
            hart.regs[reg] = value & MASK64
    return Executor(hart, memory), hart, memory


def exec_rr(mnemonic, a, b):
    """x5 = a; x6 = b; x7 = mnemonic(x5, x6); return x7."""
    executor, hart, _ = make_executor(
        [encode_instruction(mnemonic, 7, 5, 6)], regs={5: a, 6: b}
    )
    executor.step()
    return hart.regs[7]


class TestShiftAmountMasking:
    @pytest.mark.parametrize("mnemonic,value,shamt,expected", [
        # 64-bit shifts use only rs2[5:0]: 0x43 & 0x3F == 3.
        ("sll", 1, 0x43, 8),
        ("srl", 0x80, 0x43, 0x10),
        ("sra", INT64_MIN, 0x43, 0xF000000000000000),
        # 0x40 & 0x3F == 0: shifting by 64 is a no-op, not zero.
        ("sll", 0xABCD, 0x40, 0xABCD),
        ("srl", 0xABCD, 0x40, 0xABCD),
        # 32-bit shifts use only rs2[4:0]: 0x23 & 0x1F == 3.
        ("sllw", 1, 0x23, 8),
        ("srlw", 0x80000000, 0x23, 0x10000000),
        ("sraw", 0x80000000, 0x23, 0xFFFFFFFFF0000000),
        # Shifting by 32 on the word ops is a no-op (sign-extended).
        ("sllw", 5, 0x20, 5),
    ])
    def test_register_shift_masks_amount(self, mnemonic, value, shamt, expected):
        assert exec_rr(mnemonic, value, shamt) == expected


class TestDivRemEdges:
    @pytest.mark.parametrize("mnemonic,a,b,expected", [
        # Signed overflow: INT_MIN / -1 wraps to INT_MIN, remainder 0.
        ("div", INT64_MIN, MASK64, INT64_MIN),
        ("rem", INT64_MIN, MASK64, 0),
        ("divw", INT32_MIN, MASK64, INT32_MIN),
        ("remw", INT32_MIN, MASK64, 0),
        # Division by zero: quotient all-ones, remainder is the dividend.
        ("div", 123, 0, MASK64),
        ("rem", 123, 0, 123),
        ("div", (-123) & MASK64, 0, MASK64),
        ("rem", (-123) & MASK64, 0, (-123) & MASK64),
        ("divu", 123, 0, MASK64),
        ("remu", 123, 0, 123),
        ("divw", 77, 0, MASK64),
        ("remw", (-77) & MASK64, 0, (-77) & MASK64),
        ("divuw", 77, 0, MASK64),
        ("remuw", 0x80000001, 0, INT32_MIN | 1),
        # C-style truncation toward zero for mixed signs.
        ("div", (-7) & MASK64, 2, (-3) & MASK64),
        ("rem", (-7) & MASK64, 2, (-1) & MASK64),
        ("div", 7, (-2) & MASK64, (-3) & MASK64),
        ("rem", 7, (-2) & MASK64, 1),
        # Large-magnitude operands must divide exactly (no float rounding).
        ("div", (1 << 62) + 3, 3, ((1 << 62) + 3) // 3),
        ("rem", (1 << 62) + 4, 3, ((1 << 62) + 4) % 3),
        ("div", ((-(1 << 62)) - 3) & MASK64, 3, (-(((1 << 62) + 3) // 3)) & MASK64),
        # Word ops ignore the upper 32 bits of both operands.
        ("divw", (0xDEAD << 32) | 10, (0xBEEF << 32) | 3, 3),
        ("remw", (0xDEAD << 32) | 10, (0xBEEF << 32) | 3, 1),
        ("divuw", (1 << 35) | 0x80000000, 2, 0x40000000),
    ])
    def test_div_rem(self, mnemonic, a, b, expected):
        assert exec_rr(mnemonic, a, b) == expected


class TestLoadExtension:
    @pytest.mark.parametrize("mnemonic,stored,expected", [
        ("lb", 0x80, 0xFFFFFFFFFFFFFF80),
        ("lb", 0x7F, 0x7F),
        ("lbu", 0xFF, 0xFF),
        ("lh", 0x8000, 0xFFFFFFFFFFFF8000),
        ("lh", 0x7FFF, 0x7FFF),
        ("lhu", 0xFFFF, 0xFFFF),
        ("lw", 0x80000000, 0xFFFFFFFF80000000),
        ("lw", 0x7FFFFFFF, 0x7FFFFFFF),
        ("lwu", 0xFFFFFFFF, 0xFFFFFFFF),
        ("ld", 0x8000000000000001, 0x8000000000000001),
    ])
    def test_load_sign_extension(self, mnemonic, stored, expected):
        data = 0x9000
        executor, hart, memory = make_executor(
            [encode_instruction(mnemonic, 7, 5, 0)], regs={5: data}
        )
        memory.write(data, 8, stored)
        executor.step()
        assert hart.regs[7] == expected

    def test_load_to_x0_is_discarded_but_accessed(self):
        seen = []
        executor, hart, memory = make_executor(
            [encode_instruction("ld", 0, 5, 0)], regs={5: 0x9000}
        )
        memory.add_read_hook(0x9000, lambda size: seen.append(size) or 99)
        executor.step()
        assert hart.regs[0] == 0
        assert seen == [8]  # the access still happened (MMIO semantics)


class TestX0Invariant:
    def test_alu_write_to_x0_discarded(self):
        executor, hart, _ = make_executor(
            [encode_instruction("addi", 0, 0, 55)]
        )
        executor.step()
        assert hart.regs[0] == 0
        assert hart.pc == BASE + 4


class TestRunBatching:
    def _counting_loop(self, iterations):
        # x5 counts down; bne back to itself.
        return [
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -4),
            encode_instruction("addi", 6, 0, 1),
        ], {5: iterations}

    def test_run_counts_instructions(self):
        from repro.errors import DecodingError

        words, regs = self._counting_loop(10)
        executor, hart, _ = make_executor(words, regs=regs)
        # The loop retires 2 * 10 instructions plus the trailing addi, then
        # control reaches an undecodable zero word, which must raise exactly
        # as the old fetch-every-step interpreter did — with the 21 real
        # instructions already retired and architecturally applied.
        with pytest.raises(DecodingError):
            executor.run(1_000_000)
        assert executor.retired == 21
        assert hart.regs[6] == 1
        assert hart.pc == BASE + 12  # left at the faulting word

    def test_run_respects_budget_with_overshoot_bound(self):
        words, regs = self._counting_loop(10_000)
        executor, _, _ = make_executor(words, regs=regs)
        retired = executor.run(100)
        assert 100 <= retired <= 100 + Executor._MAX_BLOCK

    def test_run_and_step_agree(self):
        words, regs = self._counting_loop(7)
        executor_a, hart_a, _ = make_executor(words, regs=regs)
        executor_b, hart_b, _ = make_executor(words, regs=regs)
        executor_a.run(14)
        for _ in range(14):
            executor_b.step()
        assert hart_a.regs == hart_b.regs
        assert hart_a.pc == hart_b.pc
        assert executor_a.retired == executor_b.retired == 14


class TestSelfModifyingCode:
    def test_store_into_compiled_code_takes_effect(self):
        # x7 = 1; overwrite the *next* instruction (addi x7,x0,2) with
        # addi x7,x0,3 before it executes a second time.
        patch = encode_instruction("addi", 7, 0, 3)
        words = [
            encode_instruction("addi", 7, 0, 2),   # BASE: will be patched
            encode_instruction("sw", 6, 5, 0),     # BASE+4: patch BASE
            encode_instruction("jal", 0, -8),      # BASE+8: loop back
        ]
        executor, hart, _ = make_executor(words, regs={5: BASE, 6: patch})
        for _ in range(3):   # addi(2), sw, jal — all compiled once
            executor.step()
        assert hart.regs[7] == 2
        for _ in range(1):
            executor.step()  # re-executes BASE: must see the patched word
        assert hart.regs[7] == 3

    def test_store_into_code_mid_block_under_run(self):
        patch = encode_instruction("addi", 7, 0, 3)
        words = [
            encode_instruction("addi", 7, 0, 2),
            encode_instruction("sw", 6, 5, 0),
            encode_instruction("jal", 0, -8),
        ]
        executor, hart, _ = make_executor(words, regs={5: BASE, 6: patch})
        executor.run(6)  # two trips around the loop
        assert hart.regs[7] == 3

    def test_store_straddling_start_of_code_range_invalidates(self):
        # An 8-byte store at BASE-4 overlaps only the *first* compiled
        # instruction with its upper half; the overlap (not just the start
        # address) must trigger invalidation.
        patch = encode_instruction("addi", 7, 0, 3)
        words = [
            encode_instruction("addi", 7, 0, 2),   # BASE: patched via overlap
            encode_instruction("sd", 6, 5, -4),    # BASE+4: store to BASE-4
            encode_instruction("jal", 0, -8),      # BASE+8: loop back
        ]
        # Upper dword half = patched instruction, lower half lands below code.
        value = (patch << 32) | 0x0000_0013        # low word: nop encoding
        executor, hart, memory = make_executor(words, regs={5: BASE, 6: value})
        executor.run(6)  # two trips: second iteration must see the patch
        assert memory.read(BASE, 4) == patch
        assert hart.regs[7] == 3


class TestExecInfoProtocol:
    def test_load_info_fields(self):
        executor, _, memory = make_executor(
            [encode_instruction("lw", 7, 5, 4)], regs={5: 0x9000}
        )
        memory.write(0x9004, 4, 42)
        info = executor.step()
        assert info.mem_addr == 0x9004
        assert info.mem_size == 4
        assert not info.mem_is_store
        assert info.timing_class == TC_MEM

    def test_store_info_fields(self):
        executor, _, _ = make_executor(
            [encode_instruction("sd", 6, 5, 8)], regs={5: 0x9000, 6: 7}
        )
        info = executor.step()
        assert info.mem_addr == 0x9008
        assert info.mem_size == 8
        assert info.mem_is_store

    def test_branch_info_reused_across_outcomes(self):
        # beq taken once, then not taken: the per-PC ExecInfo is reused and
        # must be rewritten on every execution.
        words = [
            encode_instruction("beq", 5, 6, 8),    # BASE -> BASE+8 when x5==x6
            encode_instruction("addi", 0, 0, 0),
            encode_instruction("jal", 0, -8),      # BASE+8 -> BASE
        ]
        executor, hart, _ = make_executor(words, regs={5: 1, 6: 1})
        info = executor.step()
        assert info.branch_taken and info.next_pc == BASE + 8
        assert info.timing_class == TC_BRANCH
        jal_info = executor.step()
        assert jal_info.timing_class == TC_JUMP and jal_info.branch_taken
        hart.regs[6] = 2
        info = executor.step()
        assert not info.branch_taken and info.next_pc == BASE + 4

    def test_ebreak_traps_with_pc(self):
        executor, _, _ = make_executor([encode_instruction("ebreak")])
        with pytest.raises(TrapError, match=hex(BASE)):
            executor.step()
        assert executor.retired == 0


# ---------------------------------------------------------------------------
# RV64IM semantics oracle
# ---------------------------------------------------------------------------
# Expected values written straight from the RISC-V unprivileged spec
# (RV64I, M extension) with Python integers, independent of the simulator's
# semantics table.  Every case runs through three paths: tier-1 ``step()``,
# a tier-2-promoted loop, and a Rocket timing span checked against the
# interpreted timing model.
INT64_MAX = (1 << 63) - 1
OPERANDS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, INT64_MAX, INT64_MIN,
            MASK64)
IMMEDIATES = (-2048, -1, 0, 1, 2047)
SHAMTS = (0, 1, 31, 32, 63)
#: 20-bit upper immediates: the shared immediates plus both extremes.
UPPER_IMMEDIATES = IMMEDIATES + (-(1 << 19), (1 << 19) - 1)
#: Contents of a store's target dword before the store.
STORE_PATTERN = 0xA5A5A5A5A5A5A5A5


def _s64(x):
    return x - (1 << 64) if x >> 63 else x


def _s32(x):
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x >> 31 else x


def _x(value):
    """A signed result written to a 64-bit register."""
    return value & MASK64


def _w(value):
    """A 32-bit result sign-extended into a 64-bit register."""
    return _x(_s32(value))


def _trunc_div(a, b):
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _div(a, b, bits):
    """Signed division: all ones on /0, the dividend on overflow."""
    if b == 0:
        return -1
    if a == -(1 << (bits - 1)) and b == -1:
        return a
    return _trunc_div(a, b)


def _rem(a, b, bits):
    """Signed remainder: the dividend on /0, zero on overflow."""
    if b == 0:
        return a
    if a == -(1 << (bits - 1)) and b == -1:
        return 0
    return a - b * _trunc_div(a, b)


#: Register-register ops: mnemonic -> f(rs1, rs2).
SPEC_RR = {
    "add": lambda a, b: _x(a + b),
    "sub": lambda a, b: _x(a - b),
    "sll": lambda a, b: _x(a << (b & 63)),
    "slt": lambda a, b: int(_s64(a) < _s64(b)),
    "sltu": lambda a, b: int(a < b),
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b & 63),
    "sra": lambda a, b: _x(_s64(a) >> (b & 63)),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: _x(a * b),
    "mulh": lambda a, b: _x((_s64(a) * _s64(b)) >> 64),
    "mulhsu": lambda a, b: _x((_s64(a) * b) >> 64),
    "mulhu": lambda a, b: (a * b) >> 64,
    "div": lambda a, b: _x(_div(_s64(a), _s64(b), 64)),
    "divu": lambda a, b: MASK64 if b == 0 else a // b,
    "rem": lambda a, b: _x(_rem(_s64(a), _s64(b), 64)),
    "remu": lambda a, b: a if b == 0 else a % b,
    "addw": lambda a, b: _w(a + b),
    "subw": lambda a, b: _w(a - b),
    "sllw": lambda a, b: _w(a << (b & 31)),
    "srlw": lambda a, b: _w((a & 0xFFFFFFFF) >> (b & 31)),
    "sraw": lambda a, b: _w(_s32(a) >> (b & 31)),
    "mulw": lambda a, b: _w(a * b),
    "divw": lambda a, b: _w(_div(_s32(a), _s32(b), 32)),
    "divuw": lambda a, b: (
        MASK64 if b & 0xFFFFFFFF == 0
        else _w((a & 0xFFFFFFFF) // (b & 0xFFFFFFFF))
    ),
    "remw": lambda a, b: _w(_rem(_s32(a), _s32(b), 32)),
    "remuw": lambda a, b: _w(
        a if b & 0xFFFFFFFF == 0 else (a & 0xFFFFFFFF) % (b & 0xFFFFFFFF)
    ),
}
#: Register-immediate ops: mnemonic -> (f(rs1, imm), immediates).
SPEC_IMM = {
    "addi": (lambda a, i: _x(a + i), IMMEDIATES),
    "slti": (lambda a, i: int(_s64(a) < i), IMMEDIATES),
    "sltiu": (lambda a, i: int(a < _x(i)), IMMEDIATES),
    "xori": (lambda a, i: a ^ _x(i), IMMEDIATES),
    "ori": (lambda a, i: a | _x(i), IMMEDIATES),
    "andi": (lambda a, i: a & _x(i), IMMEDIATES),
    "addiw": (lambda a, i: _w(a + i), IMMEDIATES),
    "slli": (lambda a, s: _x(a << s), SHAMTS),
    "srli": (lambda a, s: a >> s, SHAMTS),
    "srai": (lambda a, s: _x(_s64(a) >> s), SHAMTS),
    # The word shifts encode only 5-bit amounts.
    "slliw": (lambda a, s: _w(a << s), (0, 1, 31)),
    "srliw": (lambda a, s: _w((a & 0xFFFFFFFF) >> s), (0, 1, 31)),
    "sraiw": (lambda a, s: _w(_s32(a) >> s), (0, 1, 31)),
}
#: Upper immediates: mnemonic -> f(imm20, pc).
SPEC_UPPER = {
    "lui": lambda i, pc: _w(i << 12),
    "auipc": lambda i, pc: _x(pc + _s32(i << 12)),
}
#: Branches: mnemonic -> taken(rs1, rs2).
SPEC_BRANCH = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _s64(a) < _s64(b),
    "bge": lambda a, b: _s64(a) >= _s64(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}
#: Loads: mnemonic -> register value for the little-endian dword in memory.
SPEC_LOAD = {
    "ld": lambda v: v,
    "lw": lambda v: _w(v),
    "lwu": lambda v: v & 0xFFFFFFFF,
    "lh": lambda v: _x((v & 0xFFFF) - ((v & 0x8000) << 1)),
    "lhu": lambda v: v & 0xFFFF,
    "lb": lambda v: _x((v & 0xFF) - ((v & 0x80) << 1)),
    "lbu": lambda v: v & 0xFF,
}
#: Stores: mnemonic -> bytes written.
SPEC_STORE = {"sd": 8, "sw": 4, "sh": 2, "sb": 1}

ORACLE_MNEMONICS = sorted(
    set(SPEC_RR) | set(SPEC_IMM) | set(SPEC_UPPER) | set(SPEC_BRANCH)
    | set(SPEC_LOAD) | set(SPEC_STORE)
)


def _rr_pairs(mnemonic):
    """Operand pairs; register shifts also take every listed shift amount."""
    seconds = OPERANDS
    if mnemonic in ("sll", "srl", "sra", "sllw", "srlw", "sraw"):
        seconds = tuple(dict.fromkeys(OPERANDS + SHAMTS))
    return [(a, b) for a in OPERANDS for b in seconds]


def _stored(mnemonic, value):
    mask = (1 << (8 * SPEC_STORE[mnemonic])) - 1
    return (STORE_PATTERN & ~mask) | (value & mask)


def _oracle_program(mnemonic, passes=4):
    """A loop applying ``mnemonic`` to every oracle case, ``passes`` times.

    Each table row holds one case's operands; each pass stores every result
    into ``out``, so the last (compiled) pass leaves the final values there.
    Returns ``(image, expected out dwords)``.
    """
    builder = AsmBuilder()
    builder.text()
    builder.label("_start")
    builder.li("s4", passes)
    builder.label("outer")
    builder.la("s0", "table")
    builder.la("s1", "out")
    builder.la("s2", "out_end")
    builder.label("row")
    rows = []
    expected = []
    if mnemonic in SPEC_RR or mnemonic in SPEC_BRANCH:
        rows = _rr_pairs(mnemonic) if mnemonic in SPEC_RR else [
            (a, b) for a in OPERANDS for b in OPERANDS
        ]
        builder.emit("ld", "t0", "s0", 0)
        builder.emit("ld", "t1", "s0", 8)
        if mnemonic in SPEC_RR:
            builder.emit(mnemonic, "t2", "t0", "t1")
            expected = [SPEC_RR[mnemonic](a, b) for a, b in rows]
        else:
            builder.li("t2", 1)
            builder.branch(mnemonic, "t0", "t1", "skip")
            builder.li("t2", 0)
            builder.label("skip")
            expected = [int(SPEC_BRANCH[mnemonic](a, b)) for a, b in rows]
        builder.emit("sd", "t2", "s1", 0)
        out_per_row = 1
    elif mnemonic in SPEC_IMM:
        spec, immediates = SPEC_IMM[mnemonic]
        rows = [(a,) for a in OPERANDS]
        builder.emit("ld", "t0", "s0", 0)
        for slot, imm in enumerate(immediates):
            builder.emit(mnemonic, "t2", "t0", imm)
            builder.emit("sd", "t2", "s1", 8 * slot)
        expected = [spec(a, imm) for (a,) in rows for imm in immediates]
        out_per_row = len(immediates)
    elif mnemonic in SPEC_UPPER:
        rows = [(a,) for a in OPERANDS]  # only paces the loop
        for slot, imm in enumerate(UPPER_IMMEDIATES):
            builder.label(f"upper{slot}")
            builder.emit(mnemonic, "t2", imm)
            builder.emit("sd", "t2", "s1", 8 * slot)
        out_per_row = len(UPPER_IMMEDIATES)
    elif mnemonic in SPEC_LOAD:
        rows = [(v,) for v in OPERANDS]
        builder.emit(mnemonic, "t2", "s0", 0)
        builder.emit("sd", "t2", "s1", 0)
        expected = [SPEC_LOAD[mnemonic](v) for (v,) in rows]
        out_per_row = 1
    else:
        rows = [(v,) for v in OPERANDS]
        builder.emit("ld", "t0", "s0", 0)
        builder.li("t1", STORE_PATTERN)
        builder.emit("sd", "t1", "s1", 0)
        builder.emit(mnemonic, "t0", "s1", 0)
        expected = [_stored(mnemonic, v) for (v,) in rows]
        out_per_row = 1
    width = len(rows[0])
    builder.emit("addi", "s0", "s0", 8 * width)
    builder.emit("addi", "s1", "s1", 8 * out_per_row)
    builder.branch("bltu", "s1", "s2", "row")
    builder.emit("addi", "s4", "s4", -1)
    builder.branch("bne", "s4", "x0", "outer")
    builder.li("t5", TOHOST_ADDRESS)
    builder.li("t6", 1)
    builder.emit("sd", "t6", "t5", 0)
    builder.label("spin")
    builder.j("spin")
    builder.data()
    builder.label("table")
    builder.dword(*[value for row in rows for value in row])
    builder.label("out")
    builder.dword(*([0] * (len(rows) * out_per_row)))
    builder.label("out_end")
    image = builder.link()
    if mnemonic in SPEC_UPPER:
        expected = [
            SPEC_UPPER[mnemonic](imm, image.symbols[f"upper{slot}"])
            for _ in rows for slot, imm in enumerate(UPPER_IMMEDIATES)
        ]
    return image, expected


def _step_results(mnemonic):
    """Every oracle case through tier-1 ``step()``: (got, expected) lists."""
    got, expected = [], []
    if mnemonic in SPEC_IMM:
        spec, immediates = SPEC_IMM[mnemonic]
        for imm in immediates:
            executor, hart, _ = make_executor(
                [encode_instruction(mnemonic, 7, 5, imm)]
            )
            for a in OPERANDS:
                hart.pc, hart.regs[5] = BASE, a
                executor.step()
                got.append(hart.regs[7])
                expected.append(spec(a, imm))
    elif mnemonic in SPEC_UPPER:
        for imm in UPPER_IMMEDIATES:
            executor, hart, _ = make_executor(
                [encode_instruction(mnemonic, 7, imm)]
            )
            executor.step()
            got.append(hart.regs[7])
            expected.append(SPEC_UPPER[mnemonic](imm, BASE))
    elif mnemonic in SPEC_LOAD or mnemonic in SPEC_STORE:
        data = 0x9000
        if mnemonic in SPEC_LOAD:
            word = encode_instruction(mnemonic, 7, 5, 0)
        else:
            word = encode_instruction(mnemonic, 6, 5, 0)
        executor, hart, memory = make_executor([word], regs={5: data})
        for value in OPERANDS:
            hart.pc, hart.regs[6] = BASE, value
            if mnemonic in SPEC_LOAD:
                memory.write(data, 8, value)
                executor.step()
                got.append(hart.regs[7])
                expected.append(SPEC_LOAD[mnemonic](value))
            else:
                memory.write(data, 8, STORE_PATTERN)
                executor.step()
                got.append(memory.read(data, 8))
                expected.append(_stored(mnemonic, value))
    else:
        branch = mnemonic in SPEC_BRANCH
        if branch:
            word = encode_instruction(mnemonic, 5, 6, 8)
            pairs = [(a, b) for a in OPERANDS for b in OPERANDS]
        else:
            word = encode_instruction(mnemonic, 7, 5, 6)
            pairs = _rr_pairs(mnemonic)
        executor, hart, _ = make_executor([word])
        for a, b in pairs:
            hart.pc, hart.regs[5], hart.regs[6] = BASE, a, b
            executor.step()
            if branch:
                got.append(hart.pc == BASE + 8)
                expected.append(SPEC_BRANCH[mnemonic](a, b))
            else:
                got.append(hart.regs[7])
                expected.append(SPEC_RR[mnemonic](a, b))
    return got, expected


class TestSemanticsOracle:
    """Every RV64IM value instruction against the spec, on both engines."""

    @pytest.mark.parametrize("mnemonic", ORACLE_MNEMONICS)
    def test_tier1_step(self, mnemonic):
        got, expected = _step_results(mnemonic)
        assert got == expected

    @pytest.mark.parametrize("mnemonic", ORACLE_MNEMONICS)
    def test_timing_span(self, mnemonic):
        image, expected = _oracle_program(mnemonic)
        fast, slow = _assert_identical(image)
        assert fast.timing_spans > 0
        out = image.symbols["out"]
        for emulator in (fast, slow):
            assert [
                emulator.memory.read(out + 8 * i, 8) for i in range(len(expected))
            ] == expected

    def test_covers_the_decoders_rv64im_value_instructions(self):
        """Every RV64IM instruction the decoder produces that computes a
        value, branches, loads or stores has oracle cases — and the
        simulator's semantics table defines exactly that set."""
        from repro.isa.semantics import ALU, BRANCHES, LOADS, STORES

        executable = (
            set(isa.R_TYPE) | set(isa.I_TYPE) | set(isa.SHIFT_IMM)
            | set(isa.U_TYPE) | set(isa.B_TYPE) | set(isa.S_TYPE)
        ) - {"jalr"}
        assert set(ORACLE_MNEMONICS) == executable
        table = set(ALU) | set(BRANCHES) | set(LOADS) | set(STORES)
        assert table == executable
