"""Pure-software multiplication kernel for multi-word decimal formats.

The format-generic counterpart of :mod:`repro.kernels.software_mul`: the same
decNumber-style flow — DPD decoded into 3-digit *units* held in memory,
unit-by-unit schoolbook multiplication into a memory accumulator, carry
normalisation, base-1e9 limb rounding with round-half-even, fold-down clamp
and DPD re-encode — but every buffer size, loop bound and bit position is
derived from the :class:`~repro.decnumber.formats.FormatSpec`.  For
decimal128 that means 12 units per operand, a 24-unit accumulator, 8 product
limbs and a 4-limb quotient.

The decimal64 kernel keeps its own hand-tuned single-word emitter (register
-resident limbs, pinned cycle counts); this module covers the two-word
formats where coefficients no longer fit a register and the limb machinery
moves to the stack frame.

Calling convention: X in ``a0``/``a1`` (low/high), Y in ``a2``/``a3``;
returns the product in ``a0``/``a1``.  Results are bit-for-bit the same as
:func:`repro.decnumber.arith.multiply` + the format's ``encode``.
"""

from __future__ import annotations

from repro.decnumber.formats import FormatSpec
from repro.kernels.stages import (
    SAVED,
    Layout,
    emit_canonical_inf,
    emit_count9,
    emit_epilogue,
    emit_finite_result,
    emit_mul_special_path,
    emit_place_declet,
    emit_prologue,
    emit_schoolbook_multiply,
    emit_special_screen,
    emit_unpack_units,
    emit_zero_result,
)
from repro.kernels.tables import TABLE_SYMBOLS


class _Frame:
    """Stack-frame layout derived from the format spec."""

    def __init__(self, spec: FormatSpec) -> None:
        self.units = spec.declets + 1            # 3-digit units per operand
        self.acc_units = 2 * self.units          # product unit accumulator
        self.limbs = -(-(3 * self.acc_units) // 9)   # base-1e9 product limbs
        self.q_limbs = -(-spec.precision // 9)       # quotient limbs
        self.x_units = 0
        self.y_units = self.x_units + 8 * self.units
        self.acc = self.y_units + 8 * self.units
        # The rounder over-reads v[w + q_limbs]; pad with zero slots.
        self.v = self.acc + 8 * self.acc_units
        self.v_slots = self.limbs + self.q_limbs
        self.q = self.v + 8 * self.v_slots
        self.save = self.q + 8 * self.q_limbs
        total = self.save + 8 * len(SAVED)
        self.size = (total + 15) // 16 * 16


def _emit_sticky_loop(b, p: str, tag: str, bound_reg: str, v_offset: int) -> None:
    """OR product limbs v[0 .. bound_reg-1] into a4 (t0/t5/t6 clobbered)."""
    b.li("t0", 0)
    b.label(f"{p}_{tag}_loop")
    b.branch("bge", "t0", bound_reg, f"{p}_{tag}_done")
    b.emit("slli", "t5", "t0", 3)
    b.emit("add", "t5", "t5", "sp")
    b.emit("ld", "t6", "t5", v_offset)
    b.emit("or", "a4", "a4", "t6")
    b.emit("addi", "t0", "t0", 1)
    b.j(f"{p}_{tag}_loop")
    b.label(f"{p}_{tag}_done")


def emit_wide_software_mul_kernel(b, spec: FormatSpec, label: str) -> str:
    """Emit the pure-software wide multiplication kernel; returns its label."""
    layout = Layout(spec)
    frame = _Frame(spec)
    p = label
    precision = layout.precision
    q_limbs = frame.q_limbs
    top_limb_pow = 10 ** (precision - 9 * (q_limbs - 1))

    b.text()
    b.label(p)

    # ---- special values: handled before any stack frame exists -------------
    emit_special_screen(b, layout, (layout.operand(0), layout.operand(1)),
                        "t2", f"{p}_special")

    # ---- prologue, constants ------------------------------------------------
    emit_prologue(b, frame.size, frame.save)
    b.la("s7", TABLE_SYMBOLS["pow10"])
    b.li("s8", 1_000_000_000)

    # ---- unpack both operands into 3-digit unit arrays ----------------------
    b.mv("s10", "a2")                 # stash Y before clobbering a-regs
    b.mv("s11", "a3")
    b.mv("a2", "a0")
    b.mv("a3", "a1")
    b.emit("addi", "a6", "sp", frame.x_units)
    b.jal("ra", f"{p}_unpack_units")
    b.mv("s3", "a3")                  # X zero indicator
    b.mv("s1", "a4")
    b.mv("s2", "a5")
    b.mv("a2", "s10")
    b.mv("a3", "s11")
    b.emit("addi", "a6", "sp", frame.y_units)
    b.jal("ra", f"{p}_unpack_units")
    b.emit("xor", "s1", "s1", "a4")
    b.emit("add", "s2", "s2", "a5")
    b.li("t0", -2 * layout.bias)      # e0 = (bx - bias) + (by - bias)
    b.emit("add", "s2", "s2", "t0")

    # ---- zero operands ------------------------------------------------------
    b.beqz("s3", f"{p}_zero_result")
    b.beqz("a3", f"{p}_zero_result")

    # ---- coefficient multiplication: unit-by-unit schoolbook loop -----------
    emit_schoolbook_multiply(b, p, frame.units, frame.x_units, frame.y_units,
                             frame.acc)
    # Combine units into base-1e9 product limbs v[0..limbs-1] (in memory),
    # and zero the over-read padding slots.
    b.li("a7", 1000)
    b.li("a6", 1_000_000)
    for limb_index in range(frame.limbs):
        base = frame.acc + 24 * limb_index
        b.emit("ld", "t0", "sp", base)
        b.emit("ld", "t1", "sp", base + 8)
        b.emit("ld", "t2", "sp", base + 16)
        b.emit("mul", "t1", "t1", "a7")
        b.emit("add", "t0", "t0", "t1")
        b.emit("mul", "t2", "t2", "a6")
        b.emit("add", "t0", "t0", "t2")
        b.emit("sd", "t0", "sp", frame.v + 8 * limb_index)
    for pad_index in range(frame.limbs, frame.v_slots):
        b.emit("sd", "zero", "sp", frame.v + 8 * pad_index)

    # ---- significant digit count D -> a6 ------------------------------------
    b.li("s0", frame.limbs - 1)
    b.label(f"{p}_top_loop")
    b.beqz("s0", f"{p}_top_zero")
    b.emit("slli", "t1", "s0", 3)
    b.emit("add", "t1", "t1", "sp")
    b.emit("ld", "a2", "t1", frame.v)
    b.bnez("a2", f"{p}_top_found")
    b.emit("addi", "s0", "s0", -1)
    b.j(f"{p}_top_loop")
    b.label(f"{p}_top_zero")
    b.emit("ld", "a2", "sp", frame.v)
    b.label(f"{p}_top_found")
    b.emit("slli", "a6", "s0", 3)
    b.emit("add", "a6", "a6", "s0")    # 9 * top limb index
    b.jal("ra", f"{p}_count9")
    b.emit("add", "a6", "a6", "a2")

    # ---- digits to drop: max(0, D - precision, etiny - e0) -------------------
    b.emit("addi", "s9", "a6", -precision)
    b.li("t0", layout.etiny)
    b.emit("sub", "t0", "t0", "s2")
    b.branch("bge", "s9", "t0", f"{p}_drop1")
    b.mv("s9", "t0")
    b.label(f"{p}_drop1")
    b.bgtz("s9", f"{p}_need_round")
    b.li("s9", 0)
    for j in range(q_limbs):
        b.emit("ld", "t0", "sp", frame.v + 8 * j)
        b.emit("sd", "t0", "sp", frame.q + 8 * j)
    b.j(f"{p}_after_round")

    b.label(f"{p}_need_round")
    b.branch("blt", "s9", "a6", f"{p}_general_round")
    b.j(f"{p}_all_dropped")

    # ---- general rounding: 1 <= drop < D ------------------------------------
    b.label(f"{p}_general_round")
    b.li("t0", 9)
    b.emit("divu", "t1", "s9", "t0")    # w = drop // 9
    b.emit("remu", "t2", "s9", "t0")    # s = drop % 9
    b.emit("slli", "t3", "t2", 3)       # 10**s
    b.emit("add", "t3", "t3", "s7")
    b.emit("ld", "t3", "t3", 0)
    b.li("t5", 9)
    b.emit("sub", "t5", "t5", "t2")     # 10**(9-s)
    b.emit("slli", "t5", "t5", 3)
    b.emit("add", "t5", "t5", "s7")
    b.emit("ld", "t4", "t5", 0)
    b.emit("slli", "t5", "t1", 3)       # &v[w]
    b.emit("add", "t5", "t5", "sp")
    # q[j] = v[w+j] / 10**s + (v[w+j+1] % 10**s) * 10**(9-s)
    for j in range(q_limbs):
        b.emit("ld", "a2", "t5", frame.v + 8 * j)
        b.emit("ld", "a3", "t5", frame.v + 8 * j + 8)
        b.emit("divu", "a4", "a2", "t3")
        b.emit("remu", "t6", "a3", "t3")
        b.emit("mul", "t6", "t6", "t4")
        b.emit("add", "a4", "a4", "t6")
        b.emit("sd", "a4", "sp", frame.q + 8 * j)
    # Rounding digit (position drop-1) and sticky digits below it.
    b.emit("addi", "t5", "s9", -1)
    b.li("t0", 9)
    b.emit("divu", "t1", "t5", "t0")    # limb holding the rounding digit
    b.emit("remu", "t2", "t5", "t0")    # its position inside that limb
    b.emit("slli", "t3", "t2", 3)       # 10**di
    b.emit("add", "t3", "t3", "s7")
    b.emit("ld", "t3", "t3", 0)
    b.emit("slli", "t5", "t1", 3)
    b.emit("add", "t5", "t5", "sp")
    b.emit("ld", "a2", "t5", frame.v)
    b.emit("divu", "a3", "a2", "t3")
    b.li("t0", 10)
    b.emit("remu", "a3", "a3", "t0")    # rounding digit
    b.emit("remu", "a4", "a2", "t3")    # sticky (within the limb)
    _emit_sticky_loop(b, p, "sticky", "t1", frame.v)
    # Round-half-even decision.
    b.li("t0", 5)
    b.branch("blt", "t0", "a3", f"{p}_round_up")     # digit > 5
    b.branch("bne", "a3", "t0", f"{p}_after_incr")   # digit < 5
    b.bnez("a4", f"{p}_round_up")                    # == 5 with sticky
    b.emit("ld", "t2", "sp", frame.q)
    b.emit("andi", "t2", "t2", 1)
    b.bnez("t2", f"{p}_round_up")                    # tie, odd quotient
    b.j(f"{p}_after_incr")
    b.label(f"{p}_round_up")
    # Increment with carry across the quotient limbs; only the non-top
    # limbs can carry out at 1e9 (the top limb is at most 10**top-1).
    for j in range(q_limbs):
        b.emit("ld", "t0", "sp", frame.q + 8 * j)
        b.emit("addi", "t0", "t0", 1)
        if j < q_limbs - 1:
            b.branch("beq", "t0", "s8", f"{p}_incr_carry{j}")
            b.emit("sd", "t0", "sp", frame.q + 8 * j)
            b.j(f"{p}_incr_done")
            b.label(f"{p}_incr_carry{j}")
            b.emit("sd", "zero", "sp", frame.q + 8 * j)
        else:
            b.emit("sd", "t0", "sp", frame.q + 8 * j)
    b.label(f"{p}_incr_done")
    # 10**precision after the carry: fold back to 10**(precision-1).
    b.emit("ld", "t0", "sp", frame.q + 8 * (q_limbs - 1))
    b.li("t1", top_limb_pow)
    b.branch("bne", "t0", "t1", f"{p}_after_incr")
    b.li("t1", top_limb_pow // 10)
    b.emit("sd", "t1", "sp", frame.q + 8 * (q_limbs - 1))
    b.emit("addi", "s9", "s9", 1)                    # exponent + 1
    b.label(f"{p}_after_incr")
    b.j(f"{p}_after_round")

    # ---- everything dropped: drop >= D --------------------------------------
    b.label(f"{p}_all_dropped")
    for j in range(q_limbs):
        b.emit("sd", "zero", "sp", frame.q + 8 * j)
    b.branch("bne", "s9", "a6", f"{p}_after_round")  # drop > D: rounds to zero
    # drop == D: result is 1 ulp iff the value exceeds half of 10**D.
    b.emit("addi", "t5", "a6", -1)
    b.li("t0", 9)
    b.emit("divu", "t1", "t5", "t0")
    b.emit("remu", "t2", "t5", "t0")
    b.emit("slli", "t5", "t1", 3)
    b.emit("add", "t5", "t5", "sp")
    b.emit("ld", "a2", "t5", frame.v)                # top limb
    b.emit("slli", "t3", "t2", 3)
    b.emit("add", "t3", "t3", "s7")
    b.emit("ld", "t3", "t3", 0)                      # 10**(digits_in_top-1)
    b.emit("divu", "a3", "a2", "t3")                 # most significant digit
    b.emit("remu", "a4", "a2", "t3")
    _emit_sticky_loop(b, p, "ad_sticky", "t1", frame.v)
    b.li("t0", 5)
    b.branch("blt", "t0", "a3", f"{p}_ad_one")
    b.branch("bne", "a3", "t0", f"{p}_after_round")
    b.beqz("a4", f"{p}_after_round")                 # exactly half: ties to even
    b.label(f"{p}_ad_one")
    b.li("t0", 1)
    b.emit("sd", "t0", "sp", frame.q)
    b.label(f"{p}_after_round")

    # ---- exponent, overflow, clamping ----------------------------------------
    b.emit("add", "s2", "s2", "s9")                   # e_r = e0 + drop
    b.emit("ld", "t0", "sp", frame.q)
    for j in range(1, q_limbs):
        b.emit("ld", "t1", "sp", frame.q + 8 * j)
        b.emit("or", "t0", "t0", "t1")
    b.beqz("t0", f"{p}_zero_result")
    for j in range(q_limbs - 1, 0, -1):
        b.emit("ld", "a2", "sp", frame.q + 8 * j)
        b.li("a6", 9 * j)
        b.bnez("a2", f"{p}_qcnt")
    b.emit("ld", "a2", "sp", frame.q)
    b.li("a6", 0)
    b.label(f"{p}_qcnt")
    b.jal("ra", f"{p}_count9")
    b.emit("add", "a6", "a6", "a2")
    b.emit("add", "t0", "s2", "a6")
    b.emit("addi", "t0", "t0", -1)                    # adjusted exponent
    b.li("t1", layout.emax)
    b.branch("bge", "t1", "t0", f"{p}_no_ovf")
    b.j(f"{p}_overflow_inf")
    b.label(f"{p}_no_ovf")
    b.li("t1", layout.etop)
    b.branch("bge", "t1", "s2", f"{p}_no_clamp")
    b.emit("sub", "t2", "s2", "t1")                   # pad
    b.mv("s2", "t1")
    b.label(f"{p}_clamp_limbshift")
    b.li("t3", 9)
    b.branch("blt", "t2", "t3", f"{p}_clamp_sub")
    for j in range(q_limbs - 1, 0, -1):
        b.emit("ld", "t4", "sp", frame.q + 8 * (j - 1))
        b.emit("sd", "t4", "sp", frame.q + 8 * j)
    b.emit("sd", "zero", "sp", frame.q)
    b.emit("addi", "t2", "t2", -9)
    b.j(f"{p}_clamp_limbshift")
    b.label(f"{p}_clamp_sub")
    b.beqz("t2", f"{p}_no_clamp")
    b.emit("slli", "t3", "t2", 3)                     # 10**pad
    b.emit("add", "t3", "t3", "s7")
    b.emit("ld", "t3", "t3", 0)
    b.li("t4", 0)                                    # carry
    for j in range(q_limbs):
        b.emit("ld", "t5", "sp", frame.q + 8 * j)
        b.emit("mul", "t5", "t5", "t3")
        b.emit("add", "t5", "t5", "t4")
        b.emit("remu", "t6", "t5", "s8")
        b.emit("sd", "t6", "sp", frame.q + 8 * j)
        b.emit("divu", "t4", "t5", "s8")
    b.label(f"{p}_no_clamp")

    # ---- re-encode to DPD -----------------------------------------------------
    b.la("t0", TABLE_SYMBOLS["bin2dpd"])
    b.li("t1", 1000)
    b.li("a2", 0)                                    # continuation, low word
    b.li("a4", 0)                                    # continuation, high word
    declet_index = 0
    for j in range(q_limbs):
        b.emit("ld", "t6", "sp", frame.q + 8 * j)
        limb_declets = (
            3 if j < q_limbs - 1 else layout.declets - 3 * (q_limbs - 1)
        )
        for _ in range(limb_declets):
            b.emit("remu", "t2", "t6", "t1")
            b.emit("divu", "t6", "t6", "t1")
            b.emit("slli", "t2", "t2", 1)
            b.emit("add", "t2", "t2", "t0")
            b.emit("lhu", "t3", "t2", 0)
            emit_place_declet(b, declet_index, "t3", ("a2", "a4"), "t5")
            declet_index += 1
    # t6 now holds the most significant digit.
    emit_finite_result(b, layout, f"{p}_fin", "s1", "s2", "t6", ("a2", "a4"))
    b.j(f"{p}_epilogue")

    # ---- zero result -----------------------------------------------------------
    emit_zero_result(b, layout, p, "s1", "s2")
    b.j(f"{p}_epilogue")

    # ---- overflow to infinity ---------------------------------------------------
    b.label(f"{p}_overflow_inf")
    emit_canonical_inf(b, layout, "s1")
    b.j(f"{p}_epilogue")

    # ---- epilogue ----------------------------------------------------------------
    b.label(f"{p}_epilogue")
    emit_epilogue(b, frame.size, frame.save)

    # ---- local subroutines and the special path ----------------------------------
    emit_unpack_units(b, layout, p)
    emit_count9(b, p)
    emit_mul_special_path(b, layout, p)
    return p
