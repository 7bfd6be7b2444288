"""Pure-software decimal64 multiplication kernel (the Table IV "Software" row).

This is the decNumber-style baseline: everything runs on the binary ALU of the
Rocket core, structured the way the library structures it.  Coefficients are
decoded from DPD into arrays of 3-digit *units* held in memory (decNumber's
default ``DECDPUN=3`` representation — one unit per declet), multiplied with a
generic unit-by-unit schoolbook loop into a memory accumulator, carry
normalised by division, rounded to 16 digits with round-half-even, and
re-encoded to DPD.  The result is bit-for-bit the same as
:func:`repro.decnumber.arith.multiply` + ``DECIMAL64.encode``, so the
simulated output is checked against the golden library.

Register allocation (callee-saved across the whole kernel):

====  =======================================================
s1    result sign
s2    true exponent (e0, later the result exponent)
s3-s6 product limbs r0..r3 (base 1e9, built from the unit accumulator)
s7    ``tbl_pow10`` base address
s8    constant 1e9
s9    digits to drop (rounding amount)
s10   quotient low limb  (9 digits)
s11   quotient high limb (7 digits)
s0    multiply-loop counter
====  =======================================================

Stack frame layout (offsets from sp):

======  =============================================
0-47    six base-1e9 limb slots used by the rounder
48-95   X units (six 3-digit units, one dword each)
96-143  Y units
144-239 product unit accumulator (twelve dwords)
240-343 saved registers (ra, s0..s11)
======  =============================================
"""

from __future__ import annotations

from repro.kernels.stages import (
    Layout,
    emit_canonical_inf,
    emit_count9,
    emit_epilogue,
    emit_finite_result,
    emit_mul_special_path,
    emit_prologue,
    emit_schoolbook_multiply,
    emit_special_screen,
    emit_unpack_units,
    emit_zero_result,
)
from repro.kernels.tables import TABLE_SYMBOLS

_FRAME = 352
_SCRATCH = 0          # sp+0   .. sp+47 : six limb slots for the rounder
_XUNITS = 48          # sp+48  .. sp+95 : X units
_YUNITS = 96          # sp+96  .. sp+143: Y units
_ACC = 144            # sp+144 .. sp+239: product unit accumulator (12 units)
_SAVE_BASE = 240      # sp+240 .. sp+343: ra, s0..s11


def emit_software_mul_kernel(b, spec, label: str) -> str:
    """Emit the pure-software decimal64 multiplication kernel; returns its
    entry label.

    Calling convention: ``a0`` = X (decimal64 bits), ``a1`` = Y; returns the
    product's decimal64 bits in ``a0``.
    """
    layout = Layout(spec)
    p = label
    b.text()
    b.label(p)

    # ---- special values: handled before any stack frame exists -------------
    emit_special_screen(b, layout, (layout.operand(0), layout.operand(1)),
                        "t2", f"{p}_special")

    # ---- prologue, constants ------------------------------------------------
    emit_prologue(b, _FRAME, _SAVE_BASE)
    b.la("s7", TABLE_SYMBOLS["pow10"])
    b.li("s8", 1_000_000_000)

    # ---- unpack both operands into 3-digit unit arrays (decNumber style) ----
    b.mv("a2", "a0")
    b.emit("addi", "a6", "sp", _XUNITS)
    b.jal("ra", f"{p}_unpack_units")
    b.mv("s3", "a3")                  # X zero indicator
    b.mv("s1", "a4")
    b.mv("s2", "a5")
    b.mv("a2", "a1")
    b.emit("addi", "a6", "sp", _YUNITS)
    b.jal("ra", f"{p}_unpack_units")
    b.emit("xor", "s1", "s1", "a4")
    b.emit("add", "s2", "s2", "a5")
    b.emit("addi", "s2", "s2", -2 * layout.bias)  # e0 = (bx - bias) + (by - bias)

    # ---- zero operands ------------------------------------------------------
    b.beqz("s3", f"{p}_zero_result")
    b.beqz("a3", f"{p}_zero_result")

    # ---- coefficient multiplication: unit-by-unit schoolbook loop -----------
    emit_schoolbook_multiply(b, p, 6, _XUNITS, _YUNITS, _ACC)
    # Combine units into four base-1e9 limbs for the rounding machinery.
    b.li("a7", 1000)
    b.li("a6", 1_000_000)
    for limb_index, limb_reg in enumerate(("s3", "s4", "s5", "s6")):
        base = _ACC + 24 * limb_index
        b.emit("ld", "t0", "sp", base)
        b.emit("ld", "t1", "sp", base + 8)
        b.emit("ld", "t2", "sp", base + 16)
        b.emit("mul", "t1", "t1", "a7")
        b.emit("add", "t0", "t0", "t1")
        b.emit("mul", "t2", "t2", "a6")
        b.emit("add", limb_reg, "t0", "t2")

    # ---- significant digit count D -> a6 ------------------------------------
    b.li("a6", 27)
    b.mv("a2", "s6")
    b.bnez("s6", f"{p}_cnt")
    b.li("a6", 18)
    b.mv("a2", "s5")
    b.bnez("s5", f"{p}_cnt")
    b.li("a6", 9)
    b.mv("a2", "s4")
    b.bnez("s4", f"{p}_cnt")
    b.li("a6", 0)
    b.mv("a2", "s3")
    b.label(f"{p}_cnt")
    b.jal("ra", f"{p}_count9")
    b.emit("add", "a6", "a6", "a2")

    # ---- digits to drop: max(0, D - 16, etiny - e0) --------------------------
    b.emit("addi", "s9", "a6", -layout.precision)
    b.li("t0", layout.etiny)
    b.emit("sub", "t0", "t0", "s2")
    b.branch("bge", "s9", "t0", f"{p}_drop1")
    b.mv("s9", "t0")
    b.label(f"{p}_drop1")
    b.bgtz("s9", f"{p}_need_round")
    b.li("s9", 0)
    b.mv("s10", "s3")
    b.mv("s11", "s4")
    b.j(f"{p}_after_round")

    b.label(f"{p}_need_round")
    b.branch("blt", "s9", "a6", f"{p}_general_round")
    b.j(f"{p}_all_dropped")

    # ---- general rounding: 1 <= drop < D ------------------------------------
    b.label(f"{p}_general_round")
    b.emit("sd", "s3", "sp", _SCRATCH + 0)
    b.emit("sd", "s4", "sp", _SCRATCH + 8)
    b.emit("sd", "s5", "sp", _SCRATCH + 16)
    b.emit("sd", "s6", "sp", _SCRATCH + 24)
    b.emit("sd", "zero", "sp", _SCRATCH + 32)
    b.emit("sd", "zero", "sp", _SCRATCH + 40)
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
    b.emit("ld", "a2", "t5", _SCRATCH + 0)
    b.emit("ld", "a3", "t5", _SCRATCH + 8)
    b.emit("ld", "a4", "t5", _SCRATCH + 16)
    # q0 = v[w] / 10**s + (v[w+1] % 10**s) * 10**(9-s)
    b.emit("divu", "s10", "a2", "t3")
    b.emit("remu", "t6", "a3", "t3")
    b.emit("mul", "t6", "t6", "t4")
    b.emit("add", "s10", "s10", "t6")
    # q1 = v[w+1] / 10**s + (v[w+2] % 10**s) * 10**(9-s)
    b.emit("divu", "s11", "a3", "t3")
    b.emit("remu", "t6", "a4", "t3")
    b.emit("mul", "t6", "t6", "t4")
    b.emit("add", "s11", "s11", "t6")
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
    b.emit("ld", "a2", "t5", _SCRATCH + 0)
    b.emit("divu", "a3", "a2", "t3")
    b.li("t0", 10)
    b.emit("remu", "a3", "a3", "t0")    # rounding digit
    b.emit("remu", "a4", "a2", "t3")    # sticky (within the limb)
    b.li("t0", 0)
    b.label(f"{p}_sticky_loop")
    b.branch("bge", "t0", "t1", f"{p}_sticky_done")
    b.emit("slli", "t5", "t0", 3)
    b.emit("add", "t5", "t5", "sp")
    b.emit("ld", "t6", "t5", _SCRATCH + 0)
    b.emit("or", "a4", "a4", "t6")
    b.emit("addi", "t0", "t0", 1)
    b.j(f"{p}_sticky_loop")
    b.label(f"{p}_sticky_done")
    # Round-half-even decision.
    b.li("t0", 5)
    b.branch("blt", "t0", "a3", f"{p}_round_up")     # digit > 5
    b.branch("bne", "a3", "t0", f"{p}_after_incr")   # digit < 5
    b.bnez("a4", f"{p}_round_up")                    # == 5 with sticky
    b.emit("andi", "t2", "s10", 1)
    b.bnez("t2", f"{p}_round_up")                    # tie, odd quotient
    b.j(f"{p}_after_incr")
    b.label(f"{p}_round_up")
    b.emit("addi", "s10", "s10", 1)
    b.branch("bne", "s10", "s8", f"{p}_after_incr")
    b.li("s10", 0)
    b.emit("addi", "s11", "s11", 1)
    b.li("t0", 10_000_000)
    b.branch("bne", "s11", "t0", f"{p}_after_incr")
    b.li("s11", 1_000_000)                           # 10**16 -> 10**15
    b.emit("addi", "s9", "s9", 1)                    # exponent + 1
    b.label(f"{p}_after_incr")
    b.j(f"{p}_after_round")

    # ---- everything dropped: drop >= D --------------------------------------
    b.label(f"{p}_all_dropped")
    b.li("s10", 0)
    b.li("s11", 0)
    b.branch("bne", "s9", "a6", f"{p}_after_round")  # drop > D: rounds to zero
    # drop == D: result is 1 ulp iff the value exceeds half of 10**D.
    b.emit("sd", "s3", "sp", _SCRATCH + 0)
    b.emit("sd", "s4", "sp", _SCRATCH + 8)
    b.emit("sd", "s5", "sp", _SCRATCH + 16)
    b.emit("sd", "s6", "sp", _SCRATCH + 24)
    b.emit("addi", "t5", "a6", -1)
    b.li("t0", 9)
    b.emit("divu", "t1", "t5", "t0")
    b.emit("remu", "t2", "t5", "t0")
    b.emit("slli", "t5", "t1", 3)
    b.emit("add", "t5", "t5", "sp")
    b.emit("ld", "a2", "t5", _SCRATCH + 0)           # top limb
    b.emit("slli", "t3", "t2", 3)
    b.emit("add", "t3", "t3", "s7")
    b.emit("ld", "t3", "t3", 0)                       # 10**(digits_in_top-1)
    b.emit("divu", "a3", "a2", "t3")                  # most significant digit
    b.emit("remu", "a4", "a2", "t3")
    b.li("t0", 0)
    b.label(f"{p}_ad_sticky_loop")
    b.branch("bge", "t0", "t1", f"{p}_ad_sticky_done")
    b.emit("slli", "t5", "t0", 3)
    b.emit("add", "t5", "t5", "sp")
    b.emit("ld", "t6", "t5", _SCRATCH + 0)
    b.emit("or", "a4", "a4", "t6")
    b.emit("addi", "t0", "t0", 1)
    b.j(f"{p}_ad_sticky_loop")
    b.label(f"{p}_ad_sticky_done")
    b.li("t0", 5)
    b.branch("blt", "t0", "a3", f"{p}_ad_one")
    b.branch("bne", "a3", "t0", f"{p}_after_round")
    b.beqz("a4", f"{p}_after_round")                 # exactly half: ties to even (0)
    b.label(f"{p}_ad_one")
    b.li("s10", 1)
    b.label(f"{p}_after_round")

    # ---- exponent, overflow, clamping ----------------------------------------
    b.emit("add", "s2", "s2", "s9")                   # e_r = e0 + drop
    b.emit("or", "t0", "s10", "s11")
    b.beqz("t0", f"{p}_zero_result")
    b.li("a6", 9)
    b.mv("a2", "s11")
    b.bnez("s11", f"{p}_qcnt")
    b.li("a6", 0)
    b.mv("a2", "s10")
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
    b.mv("s11", "s10")
    b.li("s10", 0)
    b.emit("addi", "t2", "t2", -9)
    b.j(f"{p}_clamp_limbshift")
    b.label(f"{p}_clamp_sub")
    b.beqz("t2", f"{p}_no_clamp")
    b.emit("slli", "t3", "t2", 3)                     # 10**pad
    b.emit("add", "t3", "t3", "s7")
    b.emit("ld", "t3", "t3", 0)
    b.emit("mul", "t4", "s10", "t3")
    b.emit("remu", "s10", "t4", "s8")
    b.emit("divu", "t5", "t4", "s8")
    b.emit("mul", "s11", "s11", "t3")
    b.emit("add", "s11", "s11", "t5")
    b.label(f"{p}_no_clamp")

    # ---- re-encode to DPD -----------------------------------------------------
    b.la("t0", TABLE_SYMBOLS["bin2dpd"])
    b.li("t1", 1000)
    # declet 0
    b.emit("remu", "t2", "s10", "t1")
    b.emit("divu", "s10", "s10", "t1")
    b.emit("slli", "t2", "t2", 1)
    b.emit("add", "t2", "t2", "t0")
    b.emit("lhu", "a2", "t2", 0)
    # declet 1
    b.emit("remu", "t2", "s10", "t1")
    b.emit("divu", "s10", "s10", "t1")
    b.emit("slli", "t2", "t2", 1)
    b.emit("add", "t2", "t2", "t0")
    b.emit("lhu", "t3", "t2", 0)
    b.emit("slli", "t3", "t3", 10)
    b.emit("or", "a2", "a2", "t3")
    # declet 2 (s10 is now < 1000)
    b.emit("slli", "t2", "s10", 1)
    b.emit("add", "t2", "t2", "t0")
    b.emit("lhu", "t3", "t2", 0)
    b.emit("slli", "t3", "t3", 20)
    b.emit("or", "a2", "a2", "t3")
    # declet 3
    b.emit("remu", "t2", "s11", "t1")
    b.emit("divu", "s11", "s11", "t1")
    b.emit("slli", "t2", "t2", 1)
    b.emit("add", "t2", "t2", "t0")
    b.emit("lhu", "t3", "t2", 0)
    b.emit("slli", "t3", "t3", 30)
    b.emit("or", "a2", "a2", "t3")
    # declet 4
    b.emit("remu", "t2", "s11", "t1")
    b.emit("divu", "s11", "s11", "t1")
    b.emit("slli", "t2", "t2", 1)
    b.emit("add", "t2", "t2", "t0")
    b.emit("lhu", "t3", "t2", 0)
    b.emit("slli", "t3", "t3", 40)
    b.emit("or", "a2", "a2", "t3")
    # s11 now holds the most significant digit.
    emit_finite_result(b, layout, f"{p}_fin", "s1", "s2", "s11", ("a2",))
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
    emit_epilogue(b, _FRAME, _SAVE_BASE)

    # ---- local subroutines and the special path ----------------------------------
    emit_unpack_units(b, layout, p)
    emit_count9(b, p)
    emit_mul_special_path(b, layout, p)
    return p
