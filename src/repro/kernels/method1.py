"""Method-1 decimal64 multiplication kernel (software-hardware co-design).

Implements the flow of the paper's Fig. 1: the *software part* (white blocks)
handles special values, sign/exponent arithmetic, DPD->BCD conversion, digit
extraction, rounding and re-encoding; the *hardware part* (grey blocks) —
multiplicand-multiple generation and partial-product accumulation — runs on
the RoCC decimal accelerator through the Table II instructions.

:func:`emit_mul_kernel` with ``method1`` emits the co-design kernel with real
custom instructions.  ``method1_dummy`` emits the *dummy function* variant the
paper compares against: the identical software flow, but every accelerator
invocation is replaced by a call to a static function with a fixed return
value (so the results are meaningless — only the timing is used, exactly as in
the estimation methodology of reference [9]).  ``software`` is the baseline of
:mod:`repro.kernels.software_mul`.

Register allocation (callee-saved so the dummy variant's calls are safe):

====  =====================================================
s1    result sign
s2    true exponent (e0, later the result exponent)
s3    X coefficient, packed BCD (16 digits)
s4    Y coefficient, packed BCD (shifted away during the digit loop)
s5    product low 16 digits  (read back from the accelerator)
s6    product high 16 digits (read back from the accelerator)
s7    rounded coefficient (packed BCD, <= 16 digits)
s8    digits dropped by rounding
s9    significant digit count of the product
s10   digit-loop counter
====  =====================================================
"""

from __future__ import annotations

from repro.kernels.software_mul import emit_software_mul_kernel
from repro.kernels.stages import (
    MUL_DUMMY_BODIES,
    MULTIPLICAND_REG,
    SAVED,
    HardwarePart,
    Layout,
    emit_canonical_inf,
    emit_dummy_functions,
    emit_finite_result,
    emit_mul_special_path,
    emit_nibcount,
    emit_special_screen,
    emit_unpack_fields,
    emit_zero_result,
)
from repro.kernels.tables import TABLE_SYMBOLS
from repro.rocc.decimal_accel import ACC_HI_SELECTOR, ACC_LO_SELECTOR


def _emit_unpack_bcd_subroutine(b, layout: Layout, p: str) -> None:
    """Local subroutine: a2 = decimal64 word -> a2 = BCD coefficient,
    a3 = sign, a4 = biased exponent.  Clobbers t0-t6."""
    b.label(f"{p}_unpack_bcd")
    emit_unpack_fields(
        b, layout, f"{p}_ub", "a2", out_sign="a3", out_bexp="a4",
        out_cont="t3", out_msd="t4", tmp1="t0", tmp2="t1",
    )
    b.la("t0", TABLE_SYMBOLS["dpd2bcd"])
    # declet 0 (least significant three digits)
    b.emit("andi", "t1", "t3", 0x3FF)
    b.emit("slli", "t1", "t1", 1)
    b.emit("add", "t1", "t1", "t0")
    b.emit("lhu", "a2", "t1", 0)
    for declet_index, bcd_shift in ((1, 12), (2, 24), (3, 36), (4, 48)):
        b.emit("srli", "t2", "t3", 10 * declet_index)
        b.emit("andi", "t2", "t2", 0x3FF)
        b.emit("slli", "t2", "t2", 1)
        b.emit("add", "t2", "t2", "t0")
        b.emit("lhu", "t5", "t2", 0)
        b.emit("slli", "t5", "t5", bcd_shift)
        b.emit("or", "a2", "a2", "t5")
    b.emit("slli", "t5", "t4", 60)
    b.emit("or", "a2", "a2", "t5")
    b.ret()


def emit_mul_kernel(b, spec, label: str, solution: str) -> str:
    """Emit the decimal64 multiply kernel of Table IV row ``solution``;
    returns its entry label.

    Calling convention: ``a0`` = X (decimal64 bits), ``a1`` = Y; returns the
    product's decimal64 bits in ``a0``.
    """
    if solution == "software":
        return emit_software_mul_kernel(b, spec, label)
    layout = Layout(spec)
    p = label
    hw = HardwarePart(b, p, solution)

    # ----- kernel entry --------------------------------------------------------
    b.text()
    b.label(p)
    emit_special_screen(b, layout, (layout.operand(0), layout.operand(1)),
                        "t2", f"{p}_special")
    b.prologue(SAVED)

    # Unpack both operands (software, table-driven DPD -> BCD).
    b.mv("a2", "a0")
    b.jal("ra", f"{p}_unpack_bcd")
    b.mv("s3", "a2")
    b.mv("s1", "a3")
    b.mv("s2", "a4")
    b.mv("a2", "a1")
    b.jal("ra", f"{p}_unpack_bcd")
    b.mv("s4", "a2")
    b.emit("xor", "s1", "s1", "a3")
    b.emit("add", "s2", "s2", "a4")
    b.emit("addi", "s2", "s2", -2 * layout.bias)

    # Zero operands short-circuit the whole hardware section.
    b.beqz("s3", f"{p}_zero_result")
    b.beqz("s4", f"{p}_zero_result")

    # ----- hardware part: multiples generation --------------------------------
    hw.command("CLR_ALL")
    hw.command("WR", rs1="s3", rs2=MULTIPLICAND_REG, xs1=True)
    hw.generate_multiples()

    # ----- digit loop: software extracts, hardware accumulates ----------------
    b.li("s10", layout.precision)
    b.label(f"{p}_digit_loop")
    b.emit("srli", "t0", "s4", 60)
    # accumulator = accumulator * 10 + regfile[digit]
    hw.command("DEC_ACCUM", rs1="t0", xs1=True)
    b.emit("slli", "s4", "s4", 4)
    b.emit("addi", "s10", "s10", -1)
    b.bnez("s10", f"{p}_digit_loop")

    # ----- read the 32-digit product back --------------------------------------
    hw.command("RD", rd="s5", rs2=ACC_LO_SELECTOR, xd=True)
    hw.command("RD", rd="s6", rs2=ACC_HI_SELECTOR, xd=True)

    # ----- software part: rounding ---------------------------------------------
    b.beqz("s6", f"{p}_d_lo_only")
    b.mv("a2", "s6")
    b.jal("ra", f"{p}_nibcount")
    b.emit("addi", "s9", "a2", 16)
    b.j(f"{p}_d_done")
    b.label(f"{p}_d_lo_only")
    b.mv("a2", "s5")
    b.jal("ra", f"{p}_nibcount")
    b.mv("s9", "a2")
    b.label(f"{p}_d_done")

    # drop = max(0, D - 16, etiny - e0)
    b.emit("addi", "s8", "s9", -layout.precision)
    b.li("t0", layout.etiny)
    b.emit("sub", "t0", "t0", "s2")
    b.branch("bge", "s8", "t0", f"{p}_m_drop1")
    b.mv("s8", "t0")
    b.label(f"{p}_m_drop1")
    b.bgtz("s8", f"{p}_m_need_round")
    b.li("s8", 0)
    b.mv("s7", "s5")
    b.j(f"{p}_m_after_round")

    b.label(f"{p}_m_need_round")
    b.branch("blt", "s8", "s9", f"{p}_m_general")
    b.j(f"{p}_m_all_dropped")

    # General case: 1 <= drop < D.  Work directly on the 128-bit BCD pair.
    b.label(f"{p}_m_general")
    b.emit("addi", "t0", "s8", -1)            # rounding-digit position
    b.li("t1", 16)
    b.branch("blt", "t0", "t1", f"{p}_m_rd_in_lo")
    b.emit("addi", "t2", "t0", -16)
    b.emit("slli", "t2", "t2", 2)
    b.emit("srl", "t3", "s6", "t2")
    b.emit("andi", "t3", "t3", 0xF)           # rounding digit
    b.li("t4", 1)
    b.emit("sll", "t4", "t4", "t2")
    b.emit("addi", "t4", "t4", -1)
    b.emit("and", "t4", "t4", "s6")
    b.emit("or", "t4", "t4", "s5")            # sticky
    b.j(f"{p}_m_rd_done")
    b.label(f"{p}_m_rd_in_lo")
    b.emit("slli", "t2", "t0", 2)
    b.emit("srl", "t3", "s5", "t2")
    b.emit("andi", "t3", "t3", 0xF)
    b.li("t4", 1)
    b.emit("sll", "t4", "t4", "t2")
    b.emit("addi", "t4", "t4", -1)
    b.emit("and", "t4", "t4", "s5")
    b.label(f"{p}_m_rd_done")
    # Quotient: the product shifted right by `drop` digits.
    b.li("t1", 16)
    b.branch("blt", "s8", "t1", f"{p}_m_q_small")
    b.emit("addi", "t2", "s8", -16)
    b.emit("slli", "t2", "t2", 2)
    b.emit("srl", "s7", "s6", "t2")
    b.j(f"{p}_m_q_done")
    b.label(f"{p}_m_q_small")
    b.emit("slli", "t2", "s8", 2)
    b.emit("srl", "s7", "s5", "t2")
    b.li("t5", 64)
    b.emit("sub", "t5", "t5", "t2")
    b.emit("sll", "t6", "s6", "t5")
    b.emit("or", "s7", "s7", "t6")
    b.label(f"{p}_m_q_done")
    # Round-half-even decision (t3 = digit, t4 = sticky).
    b.li("t0", 5)
    b.branch("blt", "t0", "t3", f"{p}_m_round_up")
    b.branch("bne", "t3", "t0", f"{p}_m_after_incr")
    b.bnez("t4", f"{p}_m_round_up")
    b.emit("andi", "t2", "s7", 1)
    b.bnez("t2", f"{p}_m_round_up")
    b.j(f"{p}_m_after_incr")
    b.label(f"{p}_m_round_up")
    hw.increment(("s7",))
    b.bnez("s7", f"{p}_m_after_incr")
    # 9999999999999999 + 1: coefficient becomes 10**15, exponent + 1.
    b.li("t0", 1)
    b.emit("slli", "t0", "t0", 60)
    b.mv("s7", "t0")
    b.emit("addi", "s8", "s8", 1)
    b.label(f"{p}_m_after_incr")
    b.j(f"{p}_m_after_round")

    # Everything dropped (deep underflow): result is 0 or 1 ulp.
    b.label(f"{p}_m_all_dropped")
    b.li("s7", 0)
    b.branch("bne", "s8", "s9", f"{p}_m_after_round")
    b.emit("addi", "t0", "s9", -1)            # most significant digit position
    b.li("t1", 16)
    b.branch("blt", "t0", "t1", f"{p}_m_ad_lo")
    b.emit("addi", "t2", "t0", -16)
    b.emit("slli", "t2", "t2", 2)
    b.emit("srl", "t3", "s6", "t2")
    b.emit("andi", "t3", "t3", 0xF)
    b.li("t4", 1)
    b.emit("sll", "t4", "t4", "t2")
    b.emit("addi", "t4", "t4", -1)
    b.emit("and", "t4", "t4", "s6")
    b.emit("or", "t4", "t4", "s5")
    b.j(f"{p}_m_ad_check")
    b.label(f"{p}_m_ad_lo")
    b.emit("slli", "t2", "t0", 2)
    b.emit("srl", "t3", "s5", "t2")
    b.emit("andi", "t3", "t3", 0xF)
    b.li("t4", 1)
    b.emit("sll", "t4", "t4", "t2")
    b.emit("addi", "t4", "t4", -1)
    b.emit("and", "t4", "t4", "s5")
    b.label(f"{p}_m_ad_check")
    b.li("t0", 5)
    b.branch("blt", "t0", "t3", f"{p}_m_ad_one")
    b.branch("bne", "t3", "t0", f"{p}_m_after_round")
    b.beqz("t4", f"{p}_m_after_round")
    b.label(f"{p}_m_ad_one")
    b.li("s7", 1)
    b.label(f"{p}_m_after_round")

    # ----- exponent, overflow, clamp, re-encode --------------------------------
    b.emit("add", "s2", "s2", "s8")
    b.beqz("s7", f"{p}_zero_result")
    b.mv("a2", "s7")
    b.jal("ra", f"{p}_nibcount")
    b.emit("add", "t0", "s2", "a2")
    b.emit("addi", "t0", "t0", -1)
    b.li("t1", layout.emax)
    b.branch("bge", "t1", "t0", f"{p}_m_no_ovf")
    b.j(f"{p}_m_overflow")
    b.label(f"{p}_m_no_ovf")
    b.li("t1", layout.etop)
    b.branch("bge", "t1", "s2", f"{p}_m_no_clamp")
    b.emit("sub", "t2", "s2", "t1")
    b.emit("slli", "t2", "t2", 2)
    b.emit("sll", "s7", "s7", "t2")
    b.mv("s2", "t1")
    b.label(f"{p}_m_no_clamp")
    # BCD -> DPD via the reverse table; cont accumulates in a2.
    b.la("t0", TABLE_SYMBOLS["bcd2dpd"])
    b.li("t5", 0xFFF)
    b.mv("t6", "s7")
    b.emit("and", "t2", "t6", "t5")
    b.emit("slli", "t2", "t2", 1)
    b.emit("add", "t2", "t2", "t0")
    b.emit("lhu", "a2", "t2", 0)
    for shift in (10, 20, 30, 40):
        b.emit("srli", "t6", "t6", 12)
        b.emit("and", "t2", "t6", "t5")
        b.emit("slli", "t2", "t2", 1)
        b.emit("add", "t2", "t2", "t0")
        b.emit("lhu", "t3", "t2", 0)
        b.emit("slli", "t3", "t3", shift)
        b.emit("or", "a2", "a2", "t3")
    b.emit("srli", "t6", "t6", 12)             # most significant digit
    emit_finite_result(b, layout, f"{p}_fin", "s1", "s2", "t6", ("a2",))
    b.j(f"{p}_m_epilogue")

    # Zero result (either operand zero, or the product rounded to zero).
    emit_zero_result(b, layout, p, "s1", "s2")
    b.j(f"{p}_m_epilogue")

    # Overflow to infinity.
    b.label(f"{p}_m_overflow")
    emit_canonical_inf(b, layout, "s1")
    b.j(f"{p}_m_epilogue")

    b.label(f"{p}_m_epilogue")
    b.epilogue(SAVED)

    # ----- local subroutines, dummies, special path -----------------------------
    _emit_unpack_bcd_subroutine(b, layout, p)
    emit_nibcount(b, p)
    emit_dummy_functions(b, hw, MUL_DUMMY_BODIES)
    emit_mul_special_path(b, layout, p)
    return p
