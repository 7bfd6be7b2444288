"""Method-1 multiplication kernel for multi-word decimal formats.

The format-generic counterpart of :mod:`repro.kernels.method1`: the software
part (special values, DPD<->BCD conversion, digit extraction, rounding and
re-encoding) runs on the Rocket core, the hardware part (multiplicand
multiples and partial-product accumulation) on the RoCC decimal accelerator.
All widths derive from the :class:`~repro.decnumber.formats.FormatSpec`:

* operands span two registers, so the packed-BCD coefficient (34 digits for
  decimal128) spans three 64-bit words — the multiplicand is written to the
  accelerator one *word lane* at a time (``WR`` with the lane in ``rd``);
* the digit loop walks ``precision`` multiplier digits;
* the product (68 digits) is read back word-by-word through the accumulator
  word selectors into a stack buffer, where the software rounding flow picks
  nibbles out of it;
* the rounding increment runs on the accelerator's BCD adder through two
  spare register-file registers, read back via the register-file word-lane
  selectors (passed by value, ``xs2=1``).

``method1_dummy`` emits the *dummy function* estimation variant: identical
software flow, every accelerator invocation replaced by a static call with a
fixed return value (timing-representative, results meaningless).
``software`` is the baseline of :mod:`repro.kernels.wide_mul`.

Calling convention: X in ``a0``/``a1`` (low/high), Y in ``a2``/``a3``;
returns the product in ``a0``/``a1``.
"""

from __future__ import annotations

from repro.decnumber.formats import FormatSpec
from repro.errors import ConfigurationError
from repro.kernels.stages import (
    MUL_DUMMY_BODIES,
    MULTIPLICAND_REG,
    SAVED,
    HardwarePart,
    Layout,
    emit_canonical_inf,
    emit_dummy_functions,
    emit_extract_declet,
    emit_finite_result,
    emit_mul_special_path,
    emit_nibcount,
    emit_place_declet,
    emit_special_screen,
    emit_unpack_fields,
    emit_zero_result,
)
from repro.kernels.tables import TABLE_SYMBOLS
from repro.kernels.wide_mul import emit_wide_software_mul_kernel
from repro.rocc.decimal_accel import DecimalAcceleratorConfig, acc_word_selector


def emit_wide_mul_kernel(b, spec: FormatSpec, label: str, solution: str) -> str:
    """Emit the wide multiply kernel of Table IV row ``solution``; returns
    its entry label."""
    if solution == "software":
        return emit_wide_software_mul_kernel(b, spec, label)
    layout = Layout(spec)
    p = label
    precision = layout.precision
    bcd_words = -(-(4 * precision) // 64)           # 3 for decimal128
    if bcd_words != 3:
        raise ConfigurationError(
            f"wide method1 kernel expects a three-word BCD coefficient; "
            f"{spec.name} needs {bcd_words}"
        )
    acc_words = DecimalAcceleratorConfig.for_format(spec.name).accumulator_words
    # The quotient walk reads nibbles up to (drop + precision - 1); pad the
    # product buffer with zero words so those reads stay in-frame.
    prod_nibbles = 2 * precision + precision        # worst-case nibble index
    prod_words = -(-prod_nibbles // 16)
    prod_offset = 8 * len(SAVED)
    hw = HardwarePart(b, p, solution)

    # ----- kernel entry --------------------------------------------------------
    b.text()
    b.label(p)
    emit_special_screen(b, layout, (layout.operand(0), layout.operand(1)),
                        "t2", f"{p}_special")
    b.prologue(SAVED, 8 * prod_words)

    # Unpack both operands (software, table-driven DPD -> BCD).
    b.mv("s3", "a2")                  # stash Y before clobbering a-regs
    b.mv("s4", "a3")
    b.mv("a2", "a0")
    b.mv("a3", "a1")
    b.jal("ra", f"{p}_unpack_bcd")
    b.mv("s5", "a2")                  # X BCD low/mid/high
    b.mv("s6", "a3")
    b.mv("s7", "a6")
    b.mv("s1", "a4")
    b.mv("s2", "a5")
    b.mv("a2", "s3")
    b.mv("a3", "s4")
    b.jal("ra", f"{p}_unpack_bcd")
    b.mv("s3", "a2")                  # Y BCD low/mid/high
    b.mv("s4", "a3")
    b.mv("s11", "a6")
    b.emit("xor", "s1", "s1", "a4")
    b.emit("add", "s2", "s2", "a5")
    b.li("t0", -2 * layout.bias)
    b.emit("add", "s2", "s2", "t0")

    # Zero operands short-circuit the whole hardware section.
    b.emit("or", "t0", "s5", "s6")
    b.emit("or", "t0", "t0", "s7")
    b.beqz("t0", f"{p}_zero_result")
    b.emit("or", "t0", "s3", "s4")
    b.emit("or", "t0", "t0", "s11")
    b.beqz("t0", f"{p}_zero_result")

    # ----- hardware part: multiples generation --------------------------------
    hw.command("CLR_ALL")
    for lane, reg in enumerate(("s5", "s6", "s7")):
        hw.command("WR", rd=lane, rs1=reg, rs2=MULTIPLICAND_REG, xs1=True)
    hw.generate_multiples()

    # ----- digit loop: software extracts, hardware accumulates ----------------
    # The top multiplier digit sits at nibble (precision-1) % 16 of the high
    # BCD word; shift the three-word value left one digit per iteration.
    top_nibble_shift = 4 * ((precision - 1) % 16)
    b.li("s10", precision)
    b.label(f"{p}_digit_loop")
    b.emit("srli", "t0", "s11", top_nibble_shift)
    b.emit("andi", "t0", "t0", 0xF)
    # accumulator = accumulator * 10 + regfile[digit]
    hw.command("DEC_ACCUM", rs1="t0", xs1=True)
    b.emit("slli", "s11", "s11", 4)
    b.emit("srli", "t1", "s4", 60)
    b.emit("or", "s11", "s11", "t1")
    b.emit("slli", "s4", "s4", 4)
    b.emit("srli", "t1", "s3", 60)
    b.emit("or", "s4", "s4", "t1")
    b.emit("slli", "s3", "s3", 4)
    b.emit("addi", "s10", "s10", -1)
    b.bnez("s10", f"{p}_digit_loop")

    # ----- read the full product back into the stack buffer -------------------
    for word in range(acc_words):
        hw.command("RD", rd="t0", rs2=acc_word_selector(word), xd=True)
        b.emit("sd", "t0", "sp", prod_offset + 8 * word)
    for word in range(acc_words, prod_words):
        b.emit("sd", "zero", "sp", prod_offset + 8 * word)

    # ----- software part: significant digit count D -> s9 ---------------------
    b.li("s0", acc_words - 1)
    b.label(f"{p}_d_loop")
    b.beqz("s0", f"{p}_d_last")
    b.emit("slli", "t1", "s0", 3)
    b.emit("add", "t1", "t1", "sp")
    b.emit("ld", "a2", "t1", prod_offset)
    b.bnez("a2", f"{p}_d_found")
    b.emit("addi", "s0", "s0", -1)
    b.j(f"{p}_d_loop")
    b.label(f"{p}_d_last")
    b.emit("ld", "a2", "sp", prod_offset)
    b.label(f"{p}_d_found")
    b.jal("ra", f"{p}_nibcount")
    b.emit("slli", "t0", "s0", 4)
    b.emit("add", "s9", "a2", "t0")

    # drop = max(0, D - precision, etiny - e0)
    b.emit("addi", "s8", "s9", -precision)
    b.li("t0", layout.etiny)
    b.emit("sub", "t0", "t0", "s2")
    b.branch("bge", "s8", "t0", f"{p}_m_drop1")
    b.mv("s8", "t0")
    b.label(f"{p}_m_drop1")
    b.bgtz("s8", f"{p}_m_need_round")
    b.li("s8", 0)
    b.emit("ld", "s5", "sp", prod_offset)
    b.emit("ld", "s6", "sp", prod_offset + 8)
    b.emit("ld", "s7", "sp", prod_offset + 16)
    b.j(f"{p}_m_after_round")

    b.label(f"{p}_m_need_round")
    b.branch("blt", "s8", "s9", f"{p}_m_general")
    b.j(f"{p}_m_all_dropped")

    # General case: 1 <= drop < D.  Build the quotient digit by digit from
    # nibble (drop + precision - 1) down to nibble (drop).
    b.label(f"{p}_m_general")
    b.li("s5", 0)
    b.li("s6", 0)
    b.li("s7", 0)
    b.emit("addi", "s0", "s8", precision - 1)
    b.li("s10", precision)
    b.label(f"{p}_mq_loop")
    b.mv("a2", "s0")
    b.jal("ra", f"{p}_nibble_at")
    b.emit("slli", "s7", "s7", 4)
    b.emit("srli", "t0", "s6", 60)
    b.emit("or", "s7", "s7", "t0")
    b.emit("slli", "s6", "s6", 4)
    b.emit("srli", "t0", "s5", 60)
    b.emit("or", "s6", "s6", "t0")
    b.emit("slli", "s5", "s5", 4)
    b.emit("or", "s5", "s5", "a2")
    b.emit("addi", "s0", "s0", -1)
    b.emit("addi", "s10", "s10", -1)
    b.bnez("s10", f"{p}_mq_loop")
    # Rounding digit (position drop-1) and sticky digits below it.
    b.emit("addi", "a2", "s8", -1)
    b.jal("ra", f"{p}_nibble_at")
    b.mv("a3", "a2")
    b.emit("addi", "t0", "s8", -1)
    b.emit("srli", "t1", "t0", 4)             # product word of the digit
    b.emit("andi", "t2", "t0", 15)
    b.emit("slli", "t2", "t2", 2)
    b.emit("slli", "t3", "t1", 3)
    b.emit("add", "t3", "t3", "sp")
    b.emit("ld", "t4", "t3", prod_offset)
    b.li("t5", 1)
    b.emit("sll", "t5", "t5", "t2")
    b.emit("addi", "t5", "t5", -1)
    b.emit("and", "a4", "t4", "t5")           # sticky within the word
    b.label(f"{p}_m_sticky_loop")
    b.beqz("t1", f"{p}_m_sticky_done")
    b.emit("addi", "t1", "t1", -1)
    b.emit("slli", "t3", "t1", 3)
    b.emit("add", "t3", "t3", "sp")
    b.emit("ld", "t4", "t3", prod_offset)
    b.emit("or", "a4", "a4", "t4")
    b.j(f"{p}_m_sticky_loop")
    b.label(f"{p}_m_sticky_done")
    # Round-half-even decision (a3 = digit, a4 = sticky).
    b.li("t0", 5)
    b.branch("blt", "t0", "a3", f"{p}_m_round_up")
    b.branch("bne", "a3", "t0", f"{p}_m_after_incr")
    b.bnez("a4", f"{p}_m_round_up")
    b.emit("andi", "t2", "s5", 1)
    b.bnez("t2", f"{p}_m_round_up")
    b.j(f"{p}_m_after_incr")
    b.label(f"{p}_m_round_up")
    hw.increment(("s5", "s6", "s7"))
    # All-nines quotient carried out to 10**precision: fold back to
    # 10**(precision-1), exponent + 1.  Nibble ``precision`` lands in the
    # high word at (precision % 16); nibble precision-1 one position lower.
    b.li("t0", 1 << (4 * (precision % 16)))
    b.branch("bne", "s7", "t0", f"{p}_m_after_incr")
    b.li("s5", 0)
    b.li("s6", 0)
    b.li("s7", 1 << (4 * ((precision - 1) % 16)))
    b.emit("addi", "s8", "s8", 1)
    b.label(f"{p}_m_after_incr")
    b.j(f"{p}_m_after_round")

    # Everything dropped (deep underflow): result is 0 or 1 ulp.
    b.label(f"{p}_m_all_dropped")
    b.li("s5", 0)
    b.li("s6", 0)
    b.li("s7", 0)
    b.branch("bne", "s8", "s9", f"{p}_m_after_round")
    b.emit("addi", "a2", "s9", -1)            # most significant digit
    b.jal("ra", f"{p}_nibble_at")
    b.mv("a3", "a2")
    b.emit("addi", "t0", "s9", -1)
    b.emit("srli", "t1", "t0", 4)
    b.emit("andi", "t2", "t0", 15)
    b.emit("slli", "t2", "t2", 2)
    b.emit("slli", "t3", "t1", 3)
    b.emit("add", "t3", "t3", "sp")
    b.emit("ld", "t4", "t3", prod_offset)
    b.li("t5", 1)
    b.emit("sll", "t5", "t5", "t2")
    b.emit("addi", "t5", "t5", -1)
    b.emit("and", "a4", "t4", "t5")
    b.label(f"{p}_m_ad_sticky_loop")
    b.beqz("t1", f"{p}_m_ad_sticky_done")
    b.emit("addi", "t1", "t1", -1)
    b.emit("slli", "t3", "t1", 3)
    b.emit("add", "t3", "t3", "sp")
    b.emit("ld", "t4", "t3", prod_offset)
    b.emit("or", "a4", "a4", "t4")
    b.j(f"{p}_m_ad_sticky_loop")
    b.label(f"{p}_m_ad_sticky_done")
    b.li("t0", 5)
    b.branch("blt", "t0", "a3", f"{p}_m_ad_one")
    b.branch("bne", "a3", "t0", f"{p}_m_after_round")
    b.beqz("a4", f"{p}_m_after_round")
    b.label(f"{p}_m_ad_one")
    b.li("s5", 1)
    b.label(f"{p}_m_after_round")

    # ----- exponent, overflow, clamp, re-encode --------------------------------
    b.emit("add", "s2", "s2", "s8")
    b.emit("or", "t0", "s5", "s6")
    b.emit("or", "t0", "t0", "s7")
    b.beqz("t0", f"{p}_zero_result")
    b.beqz("s7", f"{p}_mq_cnt_mid")
    b.mv("a2", "s7")
    b.jal("ra", f"{p}_nibcount")
    b.emit("addi", "a6", "a2", 32)
    b.j(f"{p}_mq_cnt_done")
    b.label(f"{p}_mq_cnt_mid")
    b.beqz("s6", f"{p}_mq_cnt_lo")
    b.mv("a2", "s6")
    b.jal("ra", f"{p}_nibcount")
    b.emit("addi", "a6", "a2", 16)
    b.j(f"{p}_mq_cnt_done")
    b.label(f"{p}_mq_cnt_lo")
    b.mv("a2", "s5")
    b.jal("ra", f"{p}_nibcount")
    b.mv("a6", "a2")
    b.label(f"{p}_mq_cnt_done")
    b.emit("add", "t0", "s2", "a6")
    b.emit("addi", "t0", "t0", -1)
    b.li("t1", layout.emax)
    b.branch("bge", "t1", "t0", f"{p}_m_no_ovf")
    b.j(f"{p}_m_overflow")
    b.label(f"{p}_m_no_ovf")
    b.li("t1", layout.etop)
    b.branch("bge", "t1", "s2", f"{p}_m_no_clamp")
    b.emit("sub", "t2", "s2", "t1")           # pad digits
    b.mv("s2", "t1")
    b.label(f"{p}_m_clamp_loop")
    b.beqz("t2", f"{p}_m_no_clamp")
    b.emit("slli", "s7", "s7", 4)
    b.emit("srli", "t3", "s6", 60)
    b.emit("or", "s7", "s7", "t3")
    b.emit("slli", "s6", "s6", 4)
    b.emit("srli", "t3", "s5", 60)
    b.emit("or", "s6", "s6", "t3")
    b.emit("slli", "s5", "s5", 4)
    b.emit("addi", "t2", "t2", -1)
    b.j(f"{p}_m_clamp_loop")
    b.label(f"{p}_m_no_clamp")
    # BCD -> DPD via the reverse table; 12-bit chunks at nibble offset 3d.
    b.la("t0", TABLE_SYMBOLS["bcd2dpd"])
    b.li("t5", 0xFFF)
    b.li("a2", 0)                             # continuation, low word
    b.li("a4", 0)                             # continuation, high word
    bcd_regs = ("s5", "s6", "s7")
    for declet in range(layout.declets):
        bit = 12 * declet
        word, word_bit = divmod(bit, 64)
        if word_bit + 12 <= 64:
            b.emit("srli", "t2", bcd_regs[word], word_bit)
        else:
            b.emit("srli", "t2", bcd_regs[word], word_bit)
            b.emit("slli", "t6", bcd_regs[word + 1], 64 - word_bit)
            b.emit("or", "t2", "t2", "t6")
        b.emit("and", "t2", "t2", "t5")
        b.emit("slli", "t2", "t2", 1)
        b.emit("add", "t2", "t2", "t0")
        b.emit("lhu", "t3", "t2", 0)
        emit_place_declet(b, declet, "t3", ("a2", "a4"), "t6")
    # Most significant digit: nibble precision-1 of the BCD value.
    b.emit("srli", "t6", bcd_regs[(precision - 1) // 16],
           4 * ((precision - 1) % 16))
    b.emit("andi", "t6", "t6", 0xF)
    emit_finite_result(b, layout, f"{p}_fin", "s1", "s2", "t6", ("a2", "a4"))
    b.j(f"{p}_m_epilogue")

    # Zero result (either operand zero, or the product rounded to zero).
    emit_zero_result(b, layout, p, "s1", "s2")
    b.j(f"{p}_m_epilogue")

    # Overflow to infinity.
    b.label(f"{p}_m_overflow")
    emit_canonical_inf(b, layout, "s1")
    b.j(f"{p}_m_epilogue")

    b.label(f"{p}_m_epilogue")
    b.epilogue(SAVED, 8 * prod_words)

    # ----- local subroutines, dummies, special path -----------------------------
    _emit_unpack_bcd_subroutine(b, layout, p)
    emit_nibcount(b, p)
    _emit_nibble_at_subroutine(b, p, prod_offset)
    emit_dummy_functions(b, hw, MUL_DUMMY_BODIES)
    emit_mul_special_path(b, layout, p)
    return p


def _emit_unpack_bcd_subroutine(b, layout: Layout, p: str) -> None:
    """Local subroutine: a2/a3 = wide word pair -> a2/a3/a6 = BCD coefficient
    words (low/mid/high), a4 = sign, a5 = biased exponent.  Clobbers t0-t6
    and a7."""
    b.label(f"{p}_unpack_bcd")
    emit_unpack_fields(
        b, layout, f"{p}_ub", "a3", out_sign="a4", out_bexp="a5",
        out_cont="t3", out_msd="t4", tmp1="t0", tmp2="t1",
    )
    b.la("t0", TABLE_SYMBOLS["dpd2bcd"])
    b.li("t6", 0)                    # BCD low word accumulator
    b.li("a6", 0)                    # BCD mid word accumulator
    b.li("a7", 0)                    # BCD high word accumulator
    accs = ("t6", "a6", "a7")
    for declet in range(layout.declets):
        emit_extract_declet(b, declet, ("a2", "t3"), "t1", "t5")
        b.emit("slli", "t1", "t1", 1)
        b.emit("add", "t1", "t1", "t0")
        b.emit("lhu", "t1", "t1", 0)
        bit = 12 * declet
        word, word_bit = divmod(bit, 64)
        if word_bit + 12 <= 64:
            if word_bit:
                b.emit("slli", "t5", "t1", word_bit)
                b.emit("or", accs[word], accs[word], "t5")
            else:
                b.emit("or", accs[word], accs[word], "t1")
        else:
            lo_bits = 64 - word_bit
            b.emit("andi", "t5", "t1", (1 << lo_bits) - 1)
            b.emit("slli", "t5", "t5", word_bit)
            b.emit("or", accs[word], accs[word], "t5")
            b.emit("srli", "t5", "t1", lo_bits)
            b.emit("or", accs[word + 1], accs[word + 1], "t5")
    # The MSD occupies nibble precision-1.
    msd_word, msd_nibble = divmod(layout.precision - 1, 16)
    b.emit("slli", "t5", "t4", 4 * msd_nibble)
    b.emit("or", accs[msd_word], accs[msd_word], "t5")
    b.mv("a2", "t6")
    b.mv("a3", "a6")
    b.mv("a6", "a7")
    b.ret()


def _emit_nibble_at_subroutine(b, p: str, prod_offset: int) -> None:
    """Local subroutine: a2 = nibble index -> a2 = product nibble value.

    Indexes the product buffer in the caller's frame (sp-relative).
    Clobbers t0-t2.
    """
    b.label(f"{p}_nibble_at")
    b.emit("srli", "t0", "a2", 4)
    b.emit("slli", "t0", "t0", 3)
    b.emit("add", "t0", "t0", "sp")
    b.emit("ld", "t1", "t0", prod_offset)
    b.emit("andi", "t2", "a2", 15)
    b.emit("slli", "t2", "t2", 2)
    b.emit("srl", "t1", "t1", "t2")
    b.emit("andi", "a2", "t1", 0xF)
    b.ret()
