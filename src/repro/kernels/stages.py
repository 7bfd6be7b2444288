"""The Fig. 1 stage library every decimal kernel is emitted through.

The paper's Fig. 1 splits a decimal operation into *software* stages
(special values, DPD<->BCD conversion, exponent arithmetic, rounding,
re-encoding) and *hardware* stages (multiplicand multiples, partial-product
accumulation) that the estimation methodology swaps for static dummy
functions.  This module emits each stage once, keyed by a :class:`Layout`
that derives every shift and mask from the format's IEEE 754-2008 §3.5
interchange layout, so decimal64 and decimal128 share one emitter.  Where
a stage's instructions depend on the format it branches only on a layout
property (how many words a value spans, whether a mask fits ``andi``'s
12-bit immediate), never on which kernel called it.

Calling conventions shared by every kernel:

* operands arrive in consecutive argument registers, least-significant
  word first: X in ``a0`` (``a0``/``a1`` for two-word formats), then Y,
  then Z; results return in the first operand's registers;
* the sign, combination field and exponent continuation sit in the top
  word; the coefficient continuation fills the words below it and the
  low bits of the top word.

Labels are prefixed with a caller-supplied string so several kernels can
coexist in one program; every helper documents the registers it clobbers.
Kernel emitters take the ``SolutionKind`` value as a plain string
(``software``, ``method1``, ``method1_dummy``): ``repro.testgen`` imports
this package, so importing ``SolutionKind`` here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decnumber.formats import FormatSpec
from repro.errors import ConfigurationError
from repro.kernels.tables import TABLE_SYMBOLS
from repro.rocc.decimal_accel import regfile_word_selector

#: Registers every kernel saves (at the frame base unless noted).
SAVED = ("ra", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9",
         "s10", "s11")

#: Accelerator register that holds the multiplicand (MM[1]); MM[i] lives in
#: register i, and register 0 stays zero so a zero multiplier digit adds 0.
MULTIPLICAND_REG = 1
MULTIPLE_COUNT = 9  # MM[1] .. MM[9]

_ARGS = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7")


@dataclass(frozen=True)
class Layout:
    """Bit positions of an interchange format held in 64-bit words."""

    spec: FormatSpec

    def __post_init__(self) -> None:
        if self.words not in (1, 2):
            raise ConfigurationError(
                f"kernels support one- and two-word formats; {self.spec.name} "
                f"occupies {self.words} word(s)"
            )

    @property
    def words(self) -> int:
        return self.spec.words_per_value

    # -- top-word field positions -------------------------------------------
    @property
    def sign_shift(self) -> int:
        return 63

    @property
    def comb_shift(self) -> int:
        """Combination-field shift within the top word."""
        return self.spec.total_bits - 6 - 64 * (self.words - 1)

    @property
    def signal_shift(self) -> int:
        """Signaling-NaN bit (MSB of the exponent continuation)."""
        return self.comb_shift - 1

    @property
    def exp_bits(self) -> int:
        return self.spec.exponent_continuation_bits

    @property
    def exp_mask(self) -> int:
        return (1 << self.exp_bits) - 1

    @property
    def exp_mask_fits_andi(self) -> bool:
        """Whether ``andi`` (12-bit signed immediate) can apply the mask."""
        return self.exp_mask <= 0x7FF

    @property
    def exp_shift(self) -> int:
        """Exponent-continuation shift within the top word; also the number
        of coefficient-continuation bits the top word holds."""
        return self.spec.coefficient_continuation_bits - 64 * (self.words - 1)

    @property
    def cont_hi_clear(self) -> int:
        """Shift that isolates the top word's continuation via slli+srli."""
        return 64 - self.exp_shift

    # -- arithmetic constants ------------------------------------------------
    @property
    def precision(self) -> int:
        return self.spec.precision

    @property
    def bias(self) -> int:
        return self.spec.bias

    @property
    def emax(self) -> int:
        return self.spec.emax

    @property
    def etiny(self) -> int:
        return self.spec.etiny

    @property
    def etop(self) -> int:
        return self.spec.etop

    @property
    def declets(self) -> int:
        return self.spec.declets

    # -- register conventions ------------------------------------------------
    def words_at(self, first: str) -> tuple:
        """The argument registers of one value starting at ``first``."""
        index = _ARGS.index(first)
        return _ARGS[index:index + self.words]

    def operand(self, index: int) -> tuple:
        """Argument registers (low word first) of operand ``index``."""
        return _ARGS[index * self.words:(index + 1) * self.words]

    @property
    def result(self) -> tuple:
        return self.operand(0)


def emit_moves(b, dests, srcs) -> None:
    """``mv`` each source word into its destination (skipping no-ops)."""
    for dest, src in zip(dests, srcs):
        if dest != src:
            b.mv(dest, src)


def emit_prologue(b, size: int, save_base: int) -> None:
    """Allocate a ``size``-byte frame with :data:`SAVED` at ``sp+save_base``
    (for frames whose buffers sit below the saved registers)."""
    b.emit("addi", "sp", "sp", -size)
    for index, reg in enumerate(SAVED):
        b.emit("sd", reg, "sp", save_base + 8 * index)


def emit_epilogue(b, size: int, save_base: int) -> None:
    """Undo :func:`emit_prologue` and return."""
    for index, reg in enumerate(SAVED):
        b.emit("ld", reg, "sp", save_base + 8 * index)
    b.emit("addi", "sp", "sp", size)
    b.ret()


# ---------------------------------------------------------- special values
def emit_special_screen(b, layout: Layout, operands, scratch: str,
                        target: str) -> None:
    """Branch to ``target`` when any of ``operands`` is Inf/NaN.

    Leaves the combination fields in ``t0``, ``t1`` (and ``t2`` for a third
    operand) for the special path; ``scratch`` holds the Inf threshold.
    Emitted before any stack frame, so the special path can ``ret``.
    """
    combs = ("t0", "t1", "t2")[:len(operands)]
    for comb, words in zip(combs, operands):
        b.emit("srli", comb, words[-1], layout.comb_shift)
        b.emit("andi", comb, comb, 0x1F)
    b.li(scratch, 0b11110)
    for comb in combs:
        b.branch("bgeu", comb, scratch, target)


def emit_nonzero_coefficient_branch(b, layout: Layout, comb: str, operand,
                                    target: str, tmp: str) -> None:
    """Branch to ``target`` when the finite ``operand`` (combination field
    in ``comb``) has a nonzero coefficient.  Clobbers ``tmp``."""
    b.li(tmp, 24)
    b.branch("bgeu", comb, tmp, target)  # MSD is 8/9 -> nonzero
    b.emit("andi", tmp, comb, 7)
    b.bnez(tmp, target)
    b.emit("slli", tmp, operand[-1], layout.cont_hi_clear)
    b.bnez(tmp, target)
    for word in operand[:-1]:
        b.bnez(word, target)


def emit_canonical_inf(b, layout: Layout, sign: str) -> None:
    """Result registers = infinity with the sign (0/1) in ``sign``.

    Clobbers ``t5``/``t6``.
    """
    b.emit("slli", "t5", sign, layout.sign_shift)
    b.li("t6", 0b11110)
    b.emit("slli", "t6", "t6", layout.comb_shift)
    b.emit("or", layout.result[-1], "t5", "t6")
    for word in layout.result[:-1]:
        b.li(word, 0)


def emit_canonical_qnan(b, layout: Layout) -> None:
    """Result registers = the canonical quiet NaN.  Clobbers ``t6``."""
    b.li("t6", 0b11111)
    b.emit("slli", "t6", "t6", layout.comb_shift)
    b.mv(layout.result[-1], "t6")
    for word in layout.result[:-1]:
        b.li(word, 0)


def emit_quiet_nan(b, layout: Layout, operand) -> None:
    """Return the NaN ``operand`` with its signaling bit cleared."""
    b.li("t6", 1)
    b.emit("slli", "t6", "t6", layout.signal_shift)
    b.not_("t6", "t6")
    emit_moves(b, layout.result[:-1], operand[:-1])
    b.emit("and", layout.result[-1], operand[-1], "t6")
    b.ret()


def emit_mul_special_path(b, layout: Layout, p: str) -> None:
    """``{p}_special``: a multiplication with an Inf/NaN operand.

    Entered from :func:`emit_special_screen` (fields in ``t0``/``t1``) with
    no stack frame; NaNs propagate quieted, Inf * 0 is invalid.  Clobbers
    ``t2-t6``.
    """
    x, y = layout.operand(0), layout.operand(1)
    b.label(f"{p}_special")
    b.li("t2", 0b11111)
    b.branch("beq", "t0", "t2", f"{p}_x_nan")
    b.branch("beq", "t1", "t2", f"{p}_y_nan")
    # At least one infinity, no NaN.
    b.li("t3", 0b11110)
    b.branch("bne", "t0", "t3", f"{p}_y_is_inf")
    b.branch("bne", "t1", "t3", f"{p}_x_inf_y_finite")
    b.j(f"{p}_make_inf")  # Inf * Inf

    # X infinite, Y finite: Inf * 0 is invalid -> NaN, otherwise Inf.
    b.label(f"{p}_x_inf_y_finite")
    emit_nonzero_coefficient_branch(b, layout, "t1", y, f"{p}_make_inf", "t4")
    b.j(f"{p}_make_nan")

    # Y infinite, X finite (X cannot be special here).
    b.label(f"{p}_y_is_inf")
    emit_nonzero_coefficient_branch(b, layout, "t0", x, f"{p}_make_inf", "t4")
    b.j(f"{p}_make_nan")

    b.label(f"{p}_make_inf")
    b.emit("xor", "t5", x[-1], y[-1])
    b.emit("srli", "t5", "t5", layout.sign_shift)
    emit_canonical_inf(b, layout, "t5")
    b.ret()

    b.label(f"{p}_make_nan")
    emit_canonical_qnan(b, layout)
    b.ret()

    b.label(f"{p}_x_nan")
    emit_quiet_nan(b, layout, x)
    b.label(f"{p}_y_nan")
    emit_moves(b, layout.result[:-1], y[:-1])  # low words before the mask
    emit_quiet_nan(b, layout, layout.result[:-1] + y[-1:])


# ------------------------------------------------- fields, encode, clamp
def emit_unpack_fields(b, layout: Layout, prefix: str, hi, out_sign, out_bexp,
                       out_cont, out_msd, tmp1, tmp2) -> None:
    """Extract sign / biased exponent / top-word continuation / MSD.

    ``hi`` holds the top word of a *finite* value and is preserved (the
    words below it are the rest of the continuation).  All output and
    temporary registers must be distinct from each other and from ``hi``.
    """
    b.emit("srli", out_sign, hi, layout.sign_shift)
    b.emit("srli", tmp1, hi, layout.comb_shift)
    b.emit("andi", tmp1, tmp1, 0x1F)
    b.li(tmp2, 24)
    b.branch("bltu", tmp1, tmp2, f"{prefix}_msd_small")
    b.emit("andi", out_msd, tmp1, 1)
    b.emit("ori", out_msd, out_msd, 8)
    b.emit("srli", tmp1, tmp1, 1)
    b.emit("andi", tmp1, tmp1, 3)
    b.j(f"{prefix}_msd_done")
    b.label(f"{prefix}_msd_small")
    b.emit("andi", out_msd, tmp1, 7)
    b.emit("srli", tmp1, tmp1, 3)
    b.label(f"{prefix}_msd_done")
    b.emit("slli", tmp1, tmp1, layout.exp_bits)
    if layout.exp_mask_fits_andi:
        b.emit("srli", out_bexp, hi, layout.exp_shift)
        b.emit("andi", out_bexp, out_bexp, layout.exp_mask)
    else:
        b.emit("slli", out_bexp, hi, 64 - (layout.exp_shift + layout.exp_bits))
        b.emit("srli", out_bexp, out_bexp, 64 - layout.exp_bits)
    b.emit("or", out_bexp, out_bexp, tmp1)
    b.emit("slli", out_cont, hi, layout.cont_hi_clear)
    b.emit("srli", out_cont, out_cont, layout.cont_hi_clear)


def emit_encode_result(b, layout: Layout, prefix: str, sign, bexp, msd, cont,
                       out, tmp1, tmp2) -> None:
    """Assemble the words ``out`` (low first) from sign / biased exponent /
    MSD / continuation words ``cont``.

    ``out[-1]`` must be distinct from every input and temporary register;
    the lower words are moved from ``cont`` last.
    """
    b.emit("srli", tmp1, bexp, layout.exp_bits)
    b.li(tmp2, 8)
    b.branch("bltu", msd, tmp2, f"{prefix}_enc_small")
    b.emit("slli", tmp1, tmp1, 1)
    b.emit("andi", tmp2, msd, 1)
    b.emit("or", tmp1, tmp1, tmp2)
    b.emit("ori", tmp1, tmp1, 24)
    b.j(f"{prefix}_enc_done")
    b.label(f"{prefix}_enc_small")
    b.emit("slli", tmp1, tmp1, 3)
    b.emit("or", tmp1, tmp1, msd)
    b.label(f"{prefix}_enc_done")
    b.emit("slli", tmp1, tmp1, layout.comb_shift)
    b.emit("slli", out[-1], sign, layout.sign_shift)
    b.emit("or", out[-1], out[-1], tmp1)
    if layout.exp_mask_fits_andi:
        b.emit("andi", tmp2, bexp, layout.exp_mask)
    else:
        b.emit("slli", tmp2, bexp, 64 - layout.exp_bits)
        b.emit("srli", tmp2, tmp2, 64 - layout.exp_bits)
    b.emit("slli", tmp2, tmp2, layout.exp_shift)
    b.emit("or", out[-1], out[-1], tmp2)
    b.emit("or", out[-1], out[-1], cont[-1])
    emit_moves(b, out[:-1], cont[:-1])


def emit_clamp_exponent(b, layout: Layout, prefix: str, exp, tmp) -> None:
    """Clamp a (true) exponent register into the usable range [etiny, etop]."""
    b.li(tmp, layout.etiny)
    b.branch("bge", exp, tmp, f"{prefix}_cl_lo_ok")
    b.mv(exp, tmp)
    b.label(f"{prefix}_cl_lo_ok")
    b.li(tmp, layout.etop)
    b.branch("bge", tmp, exp, f"{prefix}_cl_hi_ok")
    b.mv(exp, tmp)
    b.label(f"{prefix}_cl_hi_ok")


def emit_finite_result(b, layout: Layout, prefix: str, sign, exp, msd,
                       cont) -> None:
    """Result registers = the finite value (sign, true exponent ``exp``,
    MSD, continuation words).  Clobbers ``a3`` and ``t1``/``t2``/``t4``."""
    if layout.bias <= 0x7FF:
        b.emit("addi", "a3", exp, layout.bias)
    else:
        b.li("t4", layout.bias)
        b.emit("add", "a3", exp, "t4")
    emit_encode_result(b, layout, prefix, sign, "a3", msd, cont,
                       layout.result, "t1", "t2")


def emit_zero_result(b, layout: Layout, p: str, sign, exp) -> None:
    """``{p}_zero_result``: a signed zero at the clamped exponent ``exp``.

    Clobbers ``t0`` and what :func:`emit_finite_result` clobbers.
    """
    b.label(f"{p}_zero_result")
    emit_clamp_exponent(b, layout, f"{p}_z", exp, "t0")
    emit_finite_result(b, layout, f"{p}_zenc", sign, exp, "zero",
                       ("zero",) * layout.words)


# --------------------------------------------------------------- declets
def emit_extract_declet(b, declet: int, cont, out, tmp) -> None:
    """``out`` = 10-bit declet ``declet`` of the continuation words ``cont``
    (low first).  ``out`` and ``tmp`` must be distinct from ``cont``."""
    word, bit = divmod(10 * declet, 64)
    b.emit("srli", out, cont[word], bit)
    if bit + 10 <= 64:
        b.emit("andi", out, out, 0x3FF)
    else:
        high_bits = bit + 10 - 64
        b.emit("andi", tmp, cont[word + 1], (1 << high_bits) - 1)
        b.emit("slli", tmp, tmp, 64 - bit)
        b.emit("or", out, out, tmp)


def emit_place_declet(b, declet: int, src, acc, tmp) -> None:
    """OR the 10-bit declet in ``src`` into the continuation accumulators
    ``acc`` (low first).  Clobbers ``src``, and ``tmp`` when it straddles."""
    word, bit = divmod(10 * declet, 64)
    if bit + 10 <= 64:
        if bit:
            b.emit("slli", src, src, bit)
        b.emit("or", acc[word], acc[word], src)
    else:
        low_bits = 64 - bit
        b.emit("andi", tmp, src, (1 << low_bits) - 1)
        b.emit("slli", tmp, tmp, bit)
        b.emit("or", acc[word], acc[word], tmp)
        b.emit("srli", src, src, low_bits)
        b.emit("or", acc[word + 1], acc[word + 1], src)


# ---------------------------------------------------- local subroutines
def emit_nibcount(b, p: str) -> None:
    """``{p}_nibcount``: a2 = packed BCD word -> a2 = significant digits.

    Clobbers t0.  Returns 0 for a zero input (callers exclude that case).
    """
    b.label(f"{p}_nibcount")
    b.li("t0", 0)
    b.label(f"{p}_nibcount_loop")
    b.beqz("a2", f"{p}_nibcount_done")
    b.emit("srli", "a2", "a2", 4)
    b.emit("addi", "t0", "t0", 1)
    b.j(f"{p}_nibcount_loop")
    b.label(f"{p}_nibcount_done")
    b.mv("a2", "t0")
    b.ret()


def emit_count9(b, p: str) -> None:
    """``{p}_count9``: a2 = limb (< 1e9) -> a2 = decimal digit count (>= 1).

    Uses the pow10 table via s7.  Clobbers t0, t1.
    """
    b.label(f"{p}_count9")
    b.li("t0", 1)
    b.label(f"{p}_count9_loop")
    b.emit("slli", "t1", "t0", 3)
    b.emit("add", "t1", "t1", "s7")
    b.emit("ld", "t1", "t1", 0)
    b.branch("bltu", "a2", "t1", f"{p}_count9_done")
    b.emit("addi", "t0", "t0", 1)
    b.j(f"{p}_count9_loop")
    b.label(f"{p}_count9_done")
    b.mv("a2", "t0")
    b.ret()


def emit_unpack_units(b, layout: Layout, p: str) -> None:
    """``{p}_unpack_units``: decode one operand into 3-digit units
    (decNumber's ``DECDPUN=3`` representation, one unit per declet).

    ``a2`` (``a2``/``a3``) = the operand, ``a6`` = the unit buffer.  Returns
    ``a3`` = OR of all units (zero-coefficient indicator), ``a4`` = sign,
    ``a5`` = biased exponent.  Clobbers t0-t6 and ``a2``.
    """
    words = layout.words_at("a2")
    b.label(f"{p}_unpack_units")
    emit_unpack_fields(
        b, layout, f"{p}_upk", words[-1], out_sign="a4", out_bexp="a5",
        out_cont="t3", out_msd="t4", tmp1="t0", tmp2="t1",
    )
    b.la("t0", TABLE_SYMBOLS["dpd2bin"])
    # The top source word is consumed; reuse a3 as the OR accumulator.
    b.li("a3", 0)
    for declet in range(layout.declets):
        emit_extract_declet(b, declet, words[:-1] + ("t3",), "t2", "t5")
        b.emit("slli", "t2", "t2", 1)
        b.emit("add", "t2", "t2", "t0")
        b.emit("lhu", "t2", "t2", 0)
        b.emit("sd", "t2", "a6", 8 * declet)
        b.emit("or", "a3", "a3", "t2")
    b.emit("sd", "t4", "a6", 8 * layout.declets)
    b.emit("or", "a3", "a3", "t4")
    b.ret()


def emit_schoolbook_multiply(b, p: str, units: int, x_units: int,
                             y_units: int, acc: int) -> None:
    """decNumber's unit-by-unit coefficient multiply, carry normalised.

    ``acc`` (sp-relative, ``2 * units`` dwords) = X units * Y units, every
    unit back in 0..999 afterwards.  Clobbers t0-t6, a4, a7 and s0.
    """
    # Clear the accumulator.
    b.li("t0", 0)
    b.label(f"{p}_acc_clear")
    b.emit("slli", "t1", "t0", 3)
    b.emit("add", "t1", "t1", "sp")
    b.emit("sd", "zero", "t1", acc)
    b.emit("addi", "t0", "t0", 1)
    b.li("t2", 2 * units)
    b.branch("bne", "t0", "t2", f"{p}_acc_clear")
    # for j in units: for i in units: acc[i+j] += xu[i] * yu[j]
    b.li("s0", 0)
    b.label(f"{p}_mac_outer")
    b.emit("slli", "t1", "s0", 3)
    b.emit("add", "t1", "t1", "sp")
    b.emit("ld", "a4", "t1", y_units)
    b.li("t3", 0)
    b.label(f"{p}_mac_inner")
    b.emit("slli", "t1", "t3", 3)
    b.emit("add", "t1", "t1", "sp")
    b.emit("ld", "t4", "t1", x_units)
    b.emit("mul", "t4", "t4", "a4")
    b.emit("add", "t5", "t3", "s0")
    b.emit("slli", "t5", "t5", 3)
    b.emit("add", "t5", "t5", "sp")
    b.emit("ld", "t6", "t5", acc)
    b.emit("add", "t6", "t6", "t4")
    b.emit("sd", "t6", "t5", acc)
    b.emit("addi", "t3", "t3", 1)
    b.li("t1", units)
    b.branch("bne", "t3", "t1", f"{p}_mac_inner")
    b.emit("addi", "s0", "s0", 1)
    b.li("t1", units)
    b.branch("bne", "s0", "t1", f"{p}_mac_outer")
    # Carry normalisation: every accumulator unit back to 0..999.
    b.li("a7", 1000)
    b.li("t2", 0)                      # running carry
    b.li("t0", 0)
    b.label(f"{p}_carry_loop")
    b.emit("slli", "t1", "t0", 3)
    b.emit("add", "t1", "t1", "sp")
    b.emit("ld", "t4", "t1", acc)
    b.emit("add", "t4", "t4", "t2")
    b.emit("divu", "t2", "t4", "a7")   # carry out
    b.emit("mul", "t5", "t2", "a7")
    b.emit("sub", "t5", "t4", "t5")    # unit value
    b.emit("sd", "t5", "t1", acc)
    b.emit("addi", "t0", "t0", 1)
    b.li("t1", 2 * units)
    b.branch("bne", "t0", "t1", f"{p}_carry_loop")


# ------------------------------------------------------------- hardware
#: Table II command -> the dummy function standing in for it.
_DUMMY_NAMES = {
    "CLR_ALL": "clr", "WR": "wr", "DEC_ADD": "dec_add", "DEC_ADDC": "dec_add",
    "DEC_SUBB": "dec_addsub", "DEC_ACCUM": "dec_accum", "RD": "rd",
}

#: Spare accelerator registers used by a multi-word rounding increment.
_INCR_VALUE_REG = 10
_INCR_ONE_REG = 11
_INCR_RESULT_REG = 12


class HardwarePart:
    """Fig. 1's hardware stages, as Table II commands or dummy calls.

    For ``method1`` every :meth:`command` is a RoCC instruction.  For
    ``method1_dummy`` (the estimation methodology of the paper's reference
    [9]) it becomes a call to a static dummy function instead: ``rs1`` is
    passed in ``a0`` when the command reads it, and ``a0`` is copied to
    ``rd`` when the command writes it back.  :attr:`used` collects the
    dummy functions :func:`emit_dummy_functions` must emit.
    """

    def __init__(self, b, p: str, solution: str) -> None:
        self.b = b
        self.p = p
        self.dummy = solution == "method1_dummy"
        self.used = set()

    def _call_dummy(self, name: str) -> None:
        self.used.add(name)
        self.b.call(f"{self.p}_dummy_{name}")

    def command(self, funct: str, rd=0, rs1=0, rs2=0, xd=False, xs1=False,
                xs2=False) -> None:
        """Issue Table II command ``funct`` (RoCC operand fields)."""
        b = self.b
        if not self.dummy:
            b.rocc(funct, rd=rd, rs1=rs1, rs2=rs2, xd=xd, xs1=xs1, xs2=xs2)
            return
        if xs1:
            b.mv("a0", rs1)
        self._call_dummy(_DUMMY_NAMES[funct])
        if xd:
            b.mv(rd, "a0")

    def save_ra(self) -> None:
        """Push ``ra`` for ``method1_dummy``: inside a subroutine, the
        commands become calls that clobber it."""
        if self.dummy:
            self.b.emit("addi", "sp", "sp", -16)
            self.b.emit("sd", "ra", "sp", 0)

    def restore_ra(self) -> None:
        """Undo :meth:`save_ra`."""
        if self.dummy:
            self.b.emit("ld", "ra", "sp", 0)
            self.b.emit("addi", "sp", "sp", 16)

    def generate_multiples(self) -> None:
        """MM[2..9] from MM[1]: regfile[i + 1] = regfile[i] + regfile[1]."""
        for index in range(1, MULTIPLE_COUNT):
            self.command("DEC_ADD", rd=index + 1, rs1=index,
                         rs2=MULTIPLICAND_REG)

    def increment(self, regs) -> None:
        """``regs`` (packed-BCD words, low first) += 1 on the BCD adder.

        A one-word value goes through ``DEC_ADD`` by value; a wider one is
        assembled in a spare register (lane 0 clears the upper lanes) and
        read back lane by lane through the register-file word selectors.
        Clobbers t2.
        """
        b = self.b
        if self.dummy:
            b.mv("a0", regs[0])
            b.li("a1", 1)
            self._call_dummy("dec_add")
            b.mv(regs[0], "a0")
        elif len(regs) == 1:
            b.li("t2", 1)
            self.command("DEC_ADD", rd=regs[0], rs1=regs[0], rs2="t2",
                         xd=True, xs1=True, xs2=True)
        else:
            for lane, reg in enumerate(regs):
                self.command("WR", rd=lane, rs1=reg, rs2=_INCR_VALUE_REG,
                             xs1=True)
            b.li("t2", 1)
            self.command("WR", rd=0, rs1="t2", rs2=_INCR_ONE_REG, xs1=True)
            self.command("DEC_ADD", rd=_INCR_RESULT_REG, rs1=_INCR_VALUE_REG,
                         rs2=_INCR_ONE_REG)
            for lane, reg in enumerate(regs):
                b.li("t2", regfile_word_selector(_INCR_RESULT_REG, lane))
                self.command("RD", rd=reg, rs2="t2", xd=True, xs2=True)


#: Dummy-function bodies per kernel family ("designed according to the
#: method's algorithm": a couple of data moves and a fixed return value).
#: Functions are emitted in table order.
MUL_DUMMY_BODIES = {
    "clr": (),
    "wr": (("mv", "a1", "a0"),),
    "dec_add": (("mv", "a2", "a0"), ("li", "a0", 0x1)),
    "dec_accum": (("mv", "a1", "a0"),),
    "rd": (("li", "a0", 0x123),),
}
ADDSUB_FMA_DUMMY_BODIES = {
    "clr": (("mv", "a1", "a0"),),
    "dec_accum": (("mv", "a1", "a0"),),
    "dec_add": (("li", "a0", 0x1),),
    "dec_addsub": (("li", "a0", 0x1),),
    "rd": (("li", "a0", 0x123),),
    "wr": (("mv", "a1", "a0"),),
}


def emit_dummy_functions(b, hw: HardwarePart, bodies: dict) -> None:
    """The static dummy functions ``hw`` called, shaped like small compiled
    C functions (a stack frame, the body, a fixed return value), so only
    the call/return cost is representative.  Emits nothing for
    ``method1``."""
    for name, body in bodies.items():
        if name not in hw.used:
            continue
        b.label(f"{hw.p}_dummy_{name}")
        b.emit("addi", "sp", "sp", -16)
        b.emit("sd", "s0", "sp", 0)
        b.emit("addi", "s0", "sp", 16)
        for op, *args in body:
            getattr(b, op)(*args)
        b.emit("ld", "s0", "sp", 0)
        b.emit("addi", "sp", "sp", 16)
        b.ret()
