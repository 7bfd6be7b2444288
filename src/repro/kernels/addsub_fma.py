"""Format-generic decimal add/sub/FMA kernels (software and Method-1).

These kernels extend the Fig. 1 software/co-design split from multiplication
to the other three operations of the operation axis:

* **add/subtract** — unpack both operands to packed-BCD stack buffers, apply
  the bounded-alignment technique of :func:`repro.decnumber.arith.add` (shift
  the larger-exponent operand down, replacing the other with a one-digit
  sticky proxy when it sits entirely below the observable digits), then run
  an effective add or subtract over the aligned multi-word buffers, round
  once (round-half-even) and re-encode.
* **fma** — form the exact double-length product first (software: Fig. 1's
  multiplicand-multiple table computed in memory; Method-1: the accelerator's
  multiples/accumulator datapath, read back through ``RD``), then feed it
  through the *same* aligned-add core as add/subtract so the result is
  rounded exactly once.

The software and Method-1 variants share every line of the flow except the
wide BCD add/sub primitives and the product stage: software uses the
word-parallel six-correction BCD trick on the scalar ALU, Method-1 streams
the buffers through ``DEC_ADDC``/``DEC_SUBB`` — one command per 16-digit
word, with the inter-word carry/borrow chained through the accelerator's
STATUS bit so no separate carry adds or readbacks are needed.  The
``method1_dummy`` variant replaces every accelerator
invocation with a static dummy-function call (the estimation methodology of
the paper's reference [9]); its results are garbage and are never verified,
only timed.

All loop bounds are static (buffer word counts are compile-time constants),
so the dummy variant's garbage data can never change the instruction count
unboundedly.  Results are bit-identical to ``arith.add``/``subtract``/``fma``
+ ``encode`` under the format's default round-half-even context.
"""

from __future__ import annotations

from repro.kernels.stages import (
    ADDSUB_FMA_DUMMY_BODIES,
    MULTIPLE_COUNT,
    MULTIPLICAND_REG,
    SAVED,
    HardwarePart,
    Layout,
    emit_canonical_inf,
    emit_canonical_qnan,
    emit_clamp_exponent,
    emit_dummy_functions,
    emit_encode_result,
    emit_extract_declet,
    emit_moves,
    emit_nonzero_coefficient_branch,
    emit_place_declet,
    emit_quiet_nan,
    emit_special_screen,
    emit_unpack_fields,
)
from repro.kernels.tables import TABLE_SYMBOLS
from repro.rocc.decimal_accel import ACC_WORD_SELECTORS

_SAVE_BYTES = 8 * len(SAVED)  # buffers start above the saved registers

#: Word-parallel BCD-add constants (one bit / digit 6 per nibble).
_ONES_NIBBLES = 0x1111111111111111
_SIXES_NIBBLES = 0x6666666666666666
_NINES_NIBBLES = 0x9999999999999999


class _OpKernelEmitter:
    """Emits one add/sub/fma kernel for one format and one solution.

    Register contract of the shared core (everything callee-saved):

    ====  ========================================================
    s0    pointer to buffer A (the larger-exponent / product side)
    s1    pointer to buffer B (the other operand)
    s2    exponent of A        s3  exponent of B
    s4    sign of A            s5  sign of B
    s6    digit count of A     s7  digit count of B
    s8    result sign          s9  result exponent
    s10   result digit count   s11 scratch (drop / loop counters)
    ====  ========================================================

    Local subroutines preserve ``a4``/``a5`` (their pointer/count arguments)
    and every ``s`` register; they clobber ``t0-t6`` and ``a0-a3``/``a6-a7``.
    """

    def __init__(self, b, spec, label: str, solution: str, operation: str):
        self.b = b
        self.p = label
        self.operation = operation
        self.fused = fused = operation == "fma"
        self.soft = solution == "software"
        self.hw = HardwarePart(b, label, solution)
        self.layout = Layout(spec)

        self.W = spec.words_per_value
        self.prec = spec.precision
        cap = (3 if fused else 2) * self.prec + 2
        #: working-buffer words: the largest aligned sum plus one slack word
        #: (so the increment/shift helpers can never run off the end).
        self.NW = (cap + 15) // 16 + 1
        #: words holding one unpacked coefficient (what the encoder reads).
        self.K = (self.prec + 15) // 16
        #: words of the accelerator accumulator (the 2p-digit product).
        self.ACCW = (2 * self.prec + 15) // 16

        nwb = 8 * self.NW
        self.OFF_A = _SAVE_BYTES
        self.OFF_B = self.OFF_A + nwb
        if fused:
            self.OFF_Y = self.OFF_B + nwb
            if self.soft:
                #: MM[d] lives at OFF_MM + (d-1)*nwb, d = 1..9; x unpacks
                #: straight into MM[1].
                self.OFF_MM = self.OFF_Y + nwb
                self.extra = (3 + MULTIPLE_COUNT) * nwb
                self.OFF_X = self.OFF_MM
            else:
                self.extra = 3 * nwb
                self.OFF_X = self.OFF_A
        else:
            self.extra = 2 * nwb

    # ------------------------------------------------------------- utilities
    def L(self, suffix: str) -> str:
        return f"{self.p}_{suffix}"

    def _swap(self, pairs) -> None:
        b = self.b
        for lhs, rhs in pairs:
            b.mv("t0", lhs)
            b.mv(lhs, rhs)
            b.mv(rhs, "t0")

    def _zero_buffer(self, base_reg: str, first_word: int = 0) -> None:
        for w in range(first_word, self.NW):
            self.b.emit("sd", "zero", base_reg, 8 * w)

    # ------------------------------------------------------ local subroutines
    def _emit_unpack(self) -> None:
        """{p}_unpack: decode one finite operand into a packed-BCD buffer.

        In: a2 (W=1) or a2/a3 = lo/hi (W=2) = encoded value; a5 = buffer.
        Out: a3 = sign, a4 = biased exponent; buffer words 0..K-1 hold the
        coefficient (LSW first), K..NW-1 are zeroed.  Clobbers t0-t6, a0-a1,
        a6-a7; preserves a5.
        """
        b, p, layout = self.b, self.p, self.layout
        b.label(f"{p}_unpack")
        emit_unpack_fields(
            b, layout, f"{p}_upk", layout.words_at("a2")[-1], out_sign="a6",
            out_bexp="a7", out_cont="t3", out_msd="t4", tmp1="t0", tmp2="t1",
        )
        if self.W == 1:
            b.la("t5", TABLE_SYMBOLS["dpd2bcd"])
            b.emit("andi", "t1", "t3", 0x3FF)
            b.emit("slli", "t1", "t1", 1)
            b.emit("add", "t1", "t1", "t5")
            b.emit("lhu", "t6", "t1", 0)
            for declet in range(1, layout.declets):
                b.emit("srli", "t2", "t3", 10 * declet)
                b.emit("andi", "t2", "t2", 0x3FF)
                b.emit("slli", "t2", "t2", 1)
                b.emit("add", "t2", "t2", "t5")
                b.emit("lhu", "t0", "t2", 0)
                b.emit("slli", "t0", "t0", 12 * declet)
                b.emit("or", "t6", "t6", "t0")
            b.emit("slli", "t0", "t4", 12 * layout.declets)
            b.emit("or", "t6", "t6", "t0")
            b.emit("sd", "t6", "a5", 0)
            self._zero_buffer("a5", first_word=1)
        else:
            # Packed-BCD words accumulate in t6 / a0 / a1 (34 digits -> 3).
            b.li("t6", 0)
            b.li("a0", 0)
            b.li("a1", 0)
            b.la("t5", TABLE_SYMBOLS["dpd2bcd"])
            words = ("t6", "a0", "a1")
            for declet in range(layout.declets):
                emit_extract_declet(b, declet, ("a2", "t3"), "t0", "t1")
                b.emit("slli", "t0", "t0", 1)
                b.emit("add", "t0", "t0", "t5")
                b.emit("lhu", "t0", "t0", 0)
                # Place the 12-bit BCD group at bit offset 12 * declet.
                bit = 12 * declet
                word, off = divmod(bit, 64)
                if off + 12 <= 64:
                    if off:
                        b.emit("slli", "t1", "t0", off)
                    else:
                        b.mv("t1", "t0")
                    b.emit("or", words[word], words[word], "t1")
                else:
                    b.emit("slli", "t1", "t0", off)  # low part (truncated)
                    b.emit("or", words[word], words[word], "t1")
                    b.emit("srli", "t0", "t0", 64 - off)
                    b.emit("or", words[word + 1], words[word + 1], "t0")
            msd_bit = 12 * layout.declets
            word, off = divmod(msd_bit, 64)
            b.emit("slli", "t0", "t4", off)
            b.emit("or", words[word], words[word], "t0")
            for w, reg in enumerate(words):
                b.emit("sd", reg, "a5", 8 * w)
            self._zero_buffer("a5", first_word=len(words))
        b.mv("a3", "a6")
        b.mv("a4", "a7")
        b.ret()

    def _emit_nibcount(self) -> None:
        """{p}_nibcount: a5 = buffer -> a2 = significant digits (0 if zero).

        Clobbers t0-t2.
        """
        b, p = self.b, self.p
        b.label(f"{p}_nibcount")
        b.li("t0", self.NW - 1)
        b.label(f"{p}_nc_scan")
        b.emit("slli", "t1", "t0", 3)
        b.emit("add", "t1", "t1", "a5")
        b.emit("ld", "t2", "t1", 0)
        b.bnez("t2", f"{p}_nc_found")
        b.emit("addi", "t0", "t0", -1)
        b.branch("bge", "t0", "zero", f"{p}_nc_scan")
        b.li("a2", 0)
        b.ret()
        b.label(f"{p}_nc_found")
        b.emit("slli", "a2", "t0", 4)
        b.label(f"{p}_nc_digits")
        b.beqz("t2", f"{p}_nc_done")
        b.emit("srli", "t2", "t2", 4)
        b.emit("addi", "a2", "a2", 1)
        b.j(f"{p}_nc_digits")
        b.label(f"{p}_nc_done")
        b.ret()

    def _emit_shl(self) -> None:
        """{p}_shl: shift buffer a5 left (toward high words) by a4 nibbles.

        In place; the caller guarantees the result fits.  Clobbers t0-t6,
        a6-a7; preserves a4/a5.
        """
        b, p = self.b, self.p
        b.label(f"{p}_shl")
        b.emit("srli", "t0", "a4", 4)        # word shift
        b.emit("andi", "t1", "a4", 15)
        b.emit("slli", "t1", "t1", 2)        # bit shift
        b.li("t2", self.NW - 1)              # destination word index
        b.label(f"{p}_shl_loop")
        b.emit("sub", "t3", "t2", "t0")      # source word index
        b.li("t5", 0)
        b.branch("blt", "t3", "zero", f"{p}_shl_store")
        b.emit("slli", "t4", "t3", 3)
        b.emit("add", "t4", "t4", "a5")
        b.emit("ld", "t5", "t4", 0)
        b.beqz("t1", f"{p}_shl_store")
        b.emit("sll", "t5", "t5", "t1")
        b.emit("addi", "t6", "t3", -1)
        b.branch("blt", "t6", "zero", f"{p}_shl_store")
        b.emit("slli", "t4", "t6", 3)
        b.emit("add", "t4", "t4", "a5")
        b.emit("ld", "a6", "t4", 0)
        b.li("a7", 64)
        b.emit("sub", "a7", "a7", "t1")
        b.emit("srl", "a6", "a6", "a7")
        b.emit("or", "t5", "t5", "a6")
        b.label(f"{p}_shl_store")
        b.emit("slli", "t4", "t2", 3)
        b.emit("add", "t4", "t4", "a5")
        b.emit("sd", "t5", "t4", 0)
        b.emit("addi", "t2", "t2", -1)
        b.branch("bge", "t2", "zero", f"{p}_shl_loop")
        b.ret()

    def _emit_shr(self) -> None:
        """{p}_shr: shift buffer a5 right by a4 nibbles (zero fill).

        Clobbers t0-t6, a6-a7; preserves a4/a5.
        """
        b, p = self.b, self.p
        b.label(f"{p}_shr")
        b.emit("srli", "t0", "a4", 4)
        b.emit("andi", "t1", "a4", 15)
        b.emit("slli", "t1", "t1", 2)
        b.li("t2", 0)
        b.label(f"{p}_shr_loop")
        b.emit("add", "t3", "t2", "t0")      # source word index
        b.li("t5", 0)
        b.li("t4", self.NW)
        b.branch("bge", "t3", "t4", f"{p}_shr_store")
        b.emit("slli", "t4", "t3", 3)
        b.emit("add", "t4", "t4", "a5")
        b.emit("ld", "t5", "t4", 0)
        b.beqz("t1", f"{p}_shr_store")
        b.emit("srl", "t5", "t5", "t1")
        b.emit("addi", "t6", "t3", 1)
        b.li("t4", self.NW)
        b.branch("bge", "t6", "t4", f"{p}_shr_store")
        b.emit("slli", "t4", "t6", 3)
        b.emit("add", "t4", "t4", "a5")
        b.emit("ld", "a6", "t4", 0)
        b.li("a7", 64)
        b.emit("sub", "a7", "a7", "t1")
        b.emit("sll", "a6", "a6", "a7")
        b.emit("or", "t5", "t5", "a6")
        b.label(f"{p}_shr_store")
        b.emit("slli", "t4", "t2", 3)
        b.emit("add", "t4", "t4", "a5")
        b.emit("sd", "t5", "t4", 0)
        b.emit("addi", "t2", "t2", 1)
        b.li("t4", self.NW)
        b.branch("blt", "t2", "t4", f"{p}_shr_loop")
        b.ret()

    def _emit_rinfo(self) -> None:
        """{p}_rinfo: a4 = drop (1 <= drop <= digits), a5 = buffer ->
        a2 = digit at position drop-1, a3 = nonzero iff any digit below it.

        Clobbers t0-t6.
        """
        b, p = self.b, self.p
        b.label(f"{p}_rinfo")
        b.emit("addi", "t0", "a4", -1)       # digit position
        b.emit("srli", "t1", "t0", 4)        # word
        b.emit("andi", "t2", "t0", 15)       # nibble
        b.emit("slli", "t3", "t1", 3)
        b.emit("add", "t3", "t3", "a5")
        b.emit("ld", "t4", "t3", 0)
        b.emit("slli", "t5", "t2", 2)
        b.emit("srl", "a2", "t4", "t5")
        b.emit("andi", "a2", "a2", 0xF)
        b.li("a3", 0)
        b.beqz("t5", f"{p}_ri_words")
        b.li("t6", 1)
        b.emit("sll", "t6", "t6", "t5")
        b.emit("addi", "t6", "t6", -1)
        b.emit("and", "a3", "t4", "t6")
        b.label(f"{p}_ri_words")
        b.li("t5", 0)
        b.label(f"{p}_ri_loop")
        b.branch("bge", "t5", "t1", f"{p}_ri_done")
        b.emit("slli", "t6", "t5", 3)
        b.emit("add", "t6", "t6", "a5")
        b.emit("ld", "t6", "t6", 0)
        b.emit("or", "a3", "a3", "t6")
        b.emit("addi", "t5", "t5", 1)
        b.j(f"{p}_ri_loop")
        b.label(f"{p}_ri_done")
        b.ret()

    def _emit_inc(self) -> None:
        """{p}_inc: add 1 to the packed-BCD buffer a5 (nibble ripple).

        The slack word guarantees a non-9 nibble in real runs; the static
        bound makes the dummy variant's garbage safe too.  Clobbers t0-t6.
        """
        b, p = self.b, self.p
        b.label(f"{p}_inc")
        b.li("t0", 0)                        # nibble index
        b.label(f"{p}_inc_loop")
        b.li("t6", 16 * self.NW)
        b.branch("bge", "t0", "t6", f"{p}_inc_done")
        b.emit("srli", "t1", "t0", 4)
        b.emit("slli", "t1", "t1", 3)
        b.emit("add", "t1", "t1", "a5")
        b.emit("ld", "t2", "t1", 0)
        b.emit("andi", "t3", "t0", 15)
        b.emit("slli", "t3", "t3", 2)
        b.emit("srl", "t4", "t2", "t3")
        b.emit("andi", "t4", "t4", 0xF)
        b.li("t5", 0xF)
        b.emit("sll", "t5", "t5", "t3")
        b.not_("t5", "t5")
        b.emit("and", "t2", "t2", "t5")      # clear the nibble
        b.li("t5", 9)
        b.branch("beq", "t4", "t5", f"{p}_inc_carry")
        b.emit("addi", "t4", "t4", 1)
        b.emit("sll", "t4", "t4", "t3")
        b.emit("or", "t2", "t2", "t4")
        b.emit("sd", "t2", "t1", 0)
        b.label(f"{p}_inc_done")
        b.ret()
        b.label(f"{p}_inc_carry")
        b.emit("sd", "t2", "t1", 0)          # nibble 9 -> 0, carry on
        b.emit("addi", "t0", "t0", 1)
        b.j(f"{p}_inc_loop")

    def _emit_wcmp(self) -> None:
        """{p}_wcmp: magnitude compare buffers a4 / a5 -> a2 in {-1, 0, 1}.

        Clobbers t0-t3.
        """
        b, p = self.b, self.p
        b.label(f"{p}_wcmp")
        b.li("t0", self.NW - 1)
        b.label(f"{p}_wc_loop")
        b.emit("slli", "t1", "t0", 3)
        b.emit("add", "t2", "t1", "a4")
        b.emit("ld", "t2", "t2", 0)
        b.emit("add", "t3", "t1", "a5")
        b.emit("ld", "t3", "t3", 0)
        b.branch("bltu", "t2", "t3", f"{p}_wc_lt")
        b.branch("bltu", "t3", "t2", f"{p}_wc_gt")
        b.emit("addi", "t0", "t0", -1)
        b.branch("bge", "t0", "zero", f"{p}_wc_loop")
        b.li("a2", 0)
        b.ret()
        b.label(f"{p}_wc_gt")
        b.li("a2", 1)
        b.ret()
        b.label(f"{p}_wc_lt")
        b.li("a2", -1)
        b.ret()

    def _emit_copy(self) -> None:
        """{p}_copy: copy NW words from buffer a5 to buffer a4 (clobbers t0)."""
        b, p = self.b, self.p
        b.label(f"{p}_copy")
        for w in range(self.NW):
            b.emit("ld", "t0", "a5", 8 * w)
            b.emit("sd", "t0", "a4", 8 * w)
        b.ret()

    # ------------------------------------------------- wide BCD add/subtract
    def _emit_wadd_wsub(self) -> None:
        """{p}_wadd / {p}_wsub: buffer a4 +=/-= buffer a5 (packed BCD).

        wsub requires |a4| >= |a5| (the caller compares first).  Software:
        word-parallel BCD via the +6/carry-extract trick.  Method-1: one
        DEC_ADDC / DEC_SUBB command per word, the carry/borrow chained
        through the accelerator STATUS bit (CLR_ALL first — nothing in the
        accelerator is live here).  Clobbers t0-t6, a2-a3, a6-a7 (software)
        or t2-t4 (method1); preserves a4/a5.
        """
        emit = self._emit_soft_waddsub if self.soft else self._emit_hw_waddsub
        emit(sub=False)
        emit(sub=True)

    def _emit_soft_waddsub(self, sub: bool) -> None:
        b, p = self.b, self.p
        b.label(f"{p}_wsub" if sub else f"{p}_wadd")
        b.li("t0", _ONES_NIBBLES)
        b.li("a3", _SIXES_NIBBLES)
        if sub:
            b.li("a2", _NINES_NIBBLES)
            b.li("a6", 1)                    # nines complement + 1
        else:
            b.li("a6", 0)
        for w in range(self.NW):
            b.emit("ld", "t1", "a4", 8 * w)
            b.emit("ld", "t2", "a5", 8 * w)
            if sub:
                b.emit("sub", "t2", "a2", "t2")   # nines complement
            b.emit("add", "t2", "t2", "a6")       # + carry in
            b.emit("add", "t4", "t1", "a3")       # + sixes
            b.emit("add", "t5", "t4", "t2")       # binary sum
            b.emit("sltu", "a7", "t5", "t4")      # decimal carry out
            b.emit("xor", "t6", "t4", "t2")
            b.emit("xor", "t6", "t6", "t5")       # carry-in bit vector
            b.emit("srli", "t6", "t6", 4)
            b.emit("and", "t6", "t6", "t0")
            b.emit("slli", "t4", "a7", 60)
            b.emit("or", "t6", "t6", "t4")        # nibble-carry mask
            b.not_("t4", "t6")
            b.emit("and", "t4", "t4", "t0")       # nibbles with no carry
            b.emit("slli", "t1", "t4", 2)
            b.emit("slli", "t4", "t4", 1)
            b.emit("add", "t4", "t4", "t1")       # 6 per uncarried nibble
            b.emit("sub", "t5", "t5", "t4")
            b.emit("sd", "t5", "a4", 8 * w)
            b.mv("a6", "a7")
        b.ret()

    def _emit_hw_waddsub(self, sub: bool) -> None:
        b, hw = self.b, self.hw
        b.label(self.L("wsub" if sub else "wadd"))
        hw.save_ra()
        hw.command("CLR_ALL")          # status carry/borrow <- 0 (regfile is dead)
        for w in range(self.NW):
            b.emit("ld", "t2", "a4", 8 * w)
            b.emit("ld", "t3", "a5", 8 * w)
            # one 16-digit word of a4 -/+ a5; the borrow/carry chains via STATUS
            hw.command("DEC_SUBB" if sub else "DEC_ADDC", rd="t4", rs1="t2",
                       rs2="t3", xd=True, xs1=True, xs2=True)
            b.emit("sd", "t4", "a4", 8 * w)
        hw.restore_ra()
        b.ret()

    def _emit_accrd(self) -> None:
        """{p}_accrd: read the 2p-digit accumulator into buffer a5.

        Clobbers t4 (plus ra-frame traffic in the dummy variant).
        """
        b, p = self.b, self.p
        b.label(f"{p}_accrd")
        self.hw.save_ra()
        for w in range(self.ACCW):
            self.hw.command("RD", rd="t4", rs2=ACC_WORD_SELECTORS[w], xd=True)
            b.emit("sd", "t4", "a5", 8 * w)
        self.hw.restore_ra()
        for w in range(self.ACCW, self.NW):
            b.emit("sd", "zero", "a5", 8 * w)
        b.ret()

    # ------------------------------------------------------------ entry layer
    def _call(self, name: str) -> None:
        self.b.jal("ra", self.L(name))

    def _unbias(self, dest: str, src: str) -> None:
        """dest = src - bias (the bias can exceed the 12-bit addi range)."""
        b, bias = self.b, self.layout.bias
        if bias <= 2047:
            b.emit("addi", dest, src, -bias)
        else:
            b.li("t0", bias)
            b.emit("sub", dest, src, "t0")

    def _emit_entry(self) -> None:
        """Subtract sign flip, Inf/NaN screen, jump over the special path.

        The special path is emitted *before* the prologue-equipped main body
        so the conditional branches stay short; it returns without a frame.
        """
        b, layout = self.b, self.layout
        if self.operation == "sub":
            # Negate Y up front: NaN sign/payload never reach the encoded
            # comparison, so flipping before the screen is safe and lets the
            # whole special path be shared with add.
            b.li("t3", 1)
            b.emit("slli", "t3", "t3", 63)
            y_hi = layout.operand(1)[-1]
            b.emit("xor", y_hi, y_hi, "t3")
        operands = [layout.operand(i) for i in range(3 if self.fused else 2)]
        emit_special_screen(b, layout, operands, "t3", self.L("special"))
        b.j(self.L("main"))
        if self.fused:
            self._emit_fma_special()
        else:
            self._emit_addsub_special()

    def _ret_operand(self, operand) -> None:
        """Return ``operand`` verbatim in the result registers."""
        emit_moves(self.b, self.layout.result, operand)
        self.b.ret()

    def _emit_addsub_special(self) -> None:
        """Inf/NaN path for add/sub (Y's sign is already effective)."""
        b, layout = self.b, self.layout
        x, y = layout.operand(0), layout.operand(1)
        b.label(self.L("special"))
        b.li("t3", 0b11111)
        b.branch("beq", "t0", "t3", self.L("sp_x_nan"))
        b.branch("beq", "t1", "t3", self.L("sp_y_nan"))
        # At least one infinity, no NaNs.
        b.li("t3", 0b11110)
        b.branch("bne", "t1", "t3", self.L("sp_x_inf"))   # Y finite -> X is Inf
        b.branch("bne", "t0", "t3", self.L("sp_y_inf"))   # X finite -> Y is Inf
        b.emit("xor", "t4", x[-1], y[-1])                 # both Inf: sign clash?
        b.emit("srli", "t4", "t4", 63)
        b.bnez("t4", self.L("sp_make_nan"))
        b.label(self.L("sp_x_inf"))
        self._ret_operand(x)
        b.label(self.L("sp_y_inf"))
        self._ret_operand(y)
        b.label(self.L("sp_x_nan"))
        emit_quiet_nan(b, layout, x)
        b.label(self.L("sp_y_nan"))
        emit_quiet_nan(b, layout, y)
        b.label(self.L("sp_make_nan"))
        emit_canonical_qnan(b, layout)
        b.ret()

    def _emit_fma_special(self) -> None:
        """Inf/NaN path for fma, in the specification's evaluation order."""
        b, layout = self.b, self.layout
        x, y, z = layout.operand(0), layout.operand(1), layout.operand(2)
        b.label(self.L("special"))
        b.li("t3", 0b11111)
        b.branch("beq", "t0", "t3", self.L("sp_x_nan"))
        b.branch("beq", "t1", "t3", self.L("sp_y_nan"))
        b.li("t4", 0b11110)
        b.branch("beq", "t0", "t4", self.L("sp_x_inf"))
        b.branch("beq", "t1", "t4", self.L("sp_y_inf"))
        # X and Y finite: Z is the special one.
        b.branch("beq", "t2", "t3", self.L("sp_z_nan"))
        self._ret_operand(z)                              # z infinite -> z
        b.label(self.L("sp_x_inf"))
        # Inf * 0 is invalid even when z is an sNaN (checked before z).
        emit_nonzero_coefficient_branch(b, layout, "t1", y,
                                        self.L("sp_prod_inf"), "t5")
        b.j(self.L("sp_make_nan"))
        b.label(self.L("sp_y_inf"))
        emit_nonzero_coefficient_branch(b, layout, "t0", x,
                                        self.L("sp_prod_inf"), "t5")
        b.j(self.L("sp_make_nan"))
        b.label(self.L("sp_prod_inf"))
        b.emit("xor", "t5", x[-1], y[-1])
        b.emit("srli", "t5", "t5", 63)                    # product sign
        b.branch("beq", "t2", "t3", self.L("sp_z_nan"))
        b.branch("beq", "t2", "t4", self.L("sp_z_inf"))
        b.label(self.L("sp_inf_res"))
        emit_canonical_inf(b, layout, "t5")
        b.ret()
        b.label(self.L("sp_z_inf"))
        b.emit("srli", "t6", z[-1], 63)
        b.branch("beq", "t6", "t5", self.L("sp_inf_res"))
        b.label(self.L("sp_make_nan"))
        emit_canonical_qnan(b, layout)
        b.ret()
        for name, operand in (("x", x), ("y", y), ("z", z)):
            b.label(self.L(f"sp_{name}_nan"))
            emit_quiet_nan(b, layout, operand)

    # ------------------------------------------------------------- main body
    def _unpack_operand(self, operand, dest_offset: int) -> None:
        """Call {p}_unpack on ``operand`` into sp+dest_offset."""
        emit_moves(self.b, self.layout.words_at("a2"), operand)
        self.b.emit("addi", "a5", "sp", dest_offset)
        self._call("unpack")

    def _emit_addsub_main(self) -> None:
        b, layout = self.b, self.layout
        y = ("s5", "s6")[:self.W]
        emit_moves(b, y, layout.operand(1))        # park Y across the call
        self._unpack_operand(layout.operand(0), self.OFF_A)
        b.mv("s4", "a3")
        self._unbias("s2", "a4")
        self._unpack_operand(y, self.OFF_B)
        b.mv("s5", "a3")
        self._unbias("s3", "a4")
        b.emit("addi", "s0", "sp", self.OFF_A)
        b.emit("addi", "s1", "sp", self.OFF_B)
        b.mv("a5", "s0")
        self._call("nibcount")
        b.mv("s6", "a2")
        b.mv("a5", "s1")
        self._call("nibcount")
        b.mv("s7", "a2")
        # falls into the shared core

    def _emit_fma_main(self) -> None:
        b, layout, W = self.b, self.layout, self.W
        parked = ("s6", "s7", "s8", "s9")[:2 * W]
        emit_moves(b, parked, layout.operand(1) + layout.operand(2))  # Y / Z
        self._unpack_operand(layout.operand(0), self.OFF_X)
        b.mv("s4", "a3")
        self._unbias("s2", "a4")
        self._unpack_operand(parked[:W], self.OFF_Y)
        b.emit("xor", "s4", "s4", "a3")            # product sign
        self._unbias("t1", "a4")
        b.emit("add", "s2", "s2", "t1")            # product exponent
        self._unpack_operand(parked[W:], self.OFF_B)
        b.mv("s5", "a3")
        self._unbias("s3", "a4")
        b.emit("addi", "s0", "sp", self.OFF_A)
        b.emit("addi", "s1", "sp", self.OFF_B)
        b.mv("a5", "s1")
        self._call("nibcount")
        b.mv("s7", "a2")                           # digits of Z
        b.emit("addi", "a5", "sp", self.OFF_X)
        self._call("nibcount")
        b.mv("s6", "a2")
        b.beqz("s6", self.L("prod_zero"))
        b.emit("addi", "a5", "sp", self.OFF_Y)
        self._call("nibcount")
        b.mv("s10", "a2")                          # digits of Y
        b.beqz("s10", self.L("prod_zero"))
        if self.soft:
            self._emit_soft_product()
        else:
            self._emit_m1_product()
        b.mv("a5", "s0")
        self._call("nibcount")
        b.mv("s6", "a2")
        b.j(self.L("core"))
        b.label(self.L("prod_zero"))
        b.li("s6", 0)                              # exact zero product at s2
        # falls into the shared core

    def _extract_y_digit(self) -> None:
        """t2 = BCD digit ``s11`` of the Y coefficient buffer."""
        b = self.b
        b.emit("srli", "t0", "s11", 4)
        b.emit("slli", "t0", "t0", 3)
        b.emit("addi", "t1", "sp", self.OFF_Y)
        b.emit("add", "t1", "t1", "t0")
        b.emit("ld", "t2", "t1", 0)
        b.emit("andi", "t3", "s11", 15)
        b.emit("slli", "t3", "t3", 2)
        b.emit("srl", "t2", "t2", "t3")
        b.emit("andi", "t2", "t2", 0xF)

    def _emit_soft_product(self) -> None:
        """Exact 2p-digit product via the Fig. 1 multiplicand-multiple table."""
        b, p = self.b, self.p
        nwb = 8 * self.NW
        # MM[d+1] = MM[d] + MM[1]  (MM[1] holds X already).
        b.emit("addi", "s11", "sp", self.OFF_MM)
        b.li("s8", MULTIPLE_COUNT - 1)
        b.label(self.L("mm_loop"))
        b.emit("addi", "a4", "s11", nwb)
        b.mv("a5", "s11")
        self._call("copy")
        b.emit("addi", "a5", "sp", self.OFF_MM)
        self._call("wadd")
        b.emit("addi", "s11", "s11", nwb)
        b.emit("addi", "s8", "s8", -1)
        b.bnez("s8", self.L("mm_loop"))
        self._zero_buffer("s0")
        # Horner: A = A*10 + MM[digit], most significant Y digit first.
        b.emit("addi", "s11", "s10", -1)
        b.label(self.L("dig_loop"))
        b.li("a4", 1)
        b.mv("a5", "s0")
        self._call("shl")
        self._extract_y_digit()
        b.beqz("t2", self.L("dig_next"))
        b.emit("addi", "t2", "t2", -1)
        b.li("t3", nwb)
        b.emit("mul", "t2", "t2", "t3")
        b.emit("addi", "t4", "sp", self.OFF_MM)
        b.emit("add", "a5", "t4", "t2")
        b.mv("a4", "s0")
        self._call("wadd")
        b.label(self.L("dig_next"))
        b.emit("addi", "s11", "s11", -1)
        b.branch("bge", "s11", "zero", self.L("dig_loop"))

    def _emit_m1_product(self) -> None:
        """Exact product through the accelerator multiples + accumulator."""
        b, hw = self.b, self.hw
        hw.command("CLR_ALL")
        for k in range(self.K):                    # lane 0 first (full write)
            b.emit("ld", "t2", "sp", self.OFF_X + 8 * k)
            hw.command("WR", rd=k, rs1="t2", rs2=MULTIPLICAND_REG, xs1=True)
        hw.generate_multiples()
        b.emit("addi", "s11", "s10", -1)
        b.label(self.L("dig_loop"))
        self._extract_y_digit()
        # acc = acc * 10 + reg[digit]
        hw.command("DEC_ACCUM", rs1="t2", xs1=True)
        b.emit("addi", "s11", "s11", -1)
        b.branch("bge", "s11", "zero", self.L("dig_loop"))
        b.mv("a5", "s0")
        self._call("accrd")

    # ------------------------------------------------------------ shared core
    def _emit_core(self) -> None:
        """Bounded alignment + effective add/sub of (A: s0..) and (B: s1..).

        Mirrors :func:`repro.decnumber.arith.add` exactly, including the
        one-digit sticky proxy and the exact-cancellation sign rule.
        """
        b, p = self.b, self.p
        prec = self.prec
        b.label(self.L("core"))
        b.bnez("s6", self.L("co_a_nonzero"))
        b.bnez("s7", self.L("co_b_only"))
        # Both zero: RHE sign is negative only when both inputs are.
        b.emit("and", "s8", "s4", "s5")
        b.mv("s9", "s2")
        b.branch("bge", "s3", "s2", self.L("co_zz"))
        b.mv("s9", "s3")
        b.label(self.L("co_zz"))
        b.j(self.L("zero_out"))
        b.label(self.L("co_b_only"))
        self._swap((("s0", "s1"), ("s2", "s3"), ("s4", "s5"), ("s6", "s7")))
        b.j(self.L("co_one_zero"))
        b.label(self.L("co_a_nonzero"))
        b.bnez("s7", self.L("co_both"))
        b.label(self.L("co_one_zero"))
        # Result = A, padded toward min(eA, eB) but never past eA - (p+1).
        b.mv("t0", "s2")
        b.branch("bge", "s3", "s2", self.L("co_oz1"))
        b.mv("t0", "s3")
        b.label(self.L("co_oz1"))
        b.emit("addi", "t1", "s2", -(prec + 1))
        b.branch("bge", "t0", "t1", self.L("co_oz2"))
        b.mv("t0", "t1")
        b.label(self.L("co_oz2"))
        b.emit("sub", "s10", "s2", "t0")
        b.mv("s9", "t0")
        b.mv("a4", "s10")
        b.mv("a5", "s0")
        self._call("shl")
        b.emit("add", "s6", "s6", "s10")
        b.mv("s8", "s4")
        b.mv("s10", "s6")
        b.j(self.L("round"))
        b.label(self.L("co_both"))
        b.branch("bge", "s2", "s3", self.L("co_noswap"))
        self._swap((("s0", "s1"), ("s2", "s3"), ("s4", "s5"), ("s6", "s7")))
        b.label(self.L("co_noswap"))
        # bound = eA + min(-1, LA - p - 2): below it B is unobservable.
        b.emit("addi", "t0", "s6", -(prec + 2))
        b.li("t1", -1)
        b.branch("blt", "t0", "t1", self.L("co_b1"))
        b.mv("t0", "t1")
        b.label(self.L("co_b1"))
        b.emit("add", "t1", "s2", "t0")
        b.emit("add", "t2", "s7", "s3")
        b.emit("addi", "t2", "t2", -1)
        b.branch("bge", "t2", "t1", self.L("co_noproxy"))
        b.li("t3", 1)                              # sticky proxy (1, bound)
        b.emit("sd", "t3", "s1", 0)
        self._zero_buffer("s1", first_word=1)
        b.mv("s3", "t1")
        b.li("s7", 1)
        b.label(self.L("co_noproxy"))
        b.emit("sub", "s10", "s2", "s3")
        b.mv("a4", "s10")
        b.mv("a5", "s0")
        self._call("shl")
        b.emit("add", "s6", "s6", "s10")
        b.mv("s2", "s3")
        b.branch("beq", "s4", "s5", self.L("co_eff_add"))
        b.mv("a4", "s0")
        b.mv("a5", "s1")
        self._call("wcmp")
        b.bnez("a2", self.L("co_ne"))
        b.li("s8", 0)                              # exact cancellation: +0 (RHE)
        b.mv("s9", "s2")
        b.j(self.L("zero_out"))
        b.label(self.L("co_ne"))
        b.bgtz("a2", self.L("co_a_larger"))
        self._swap((("s0", "s1"),))
        b.mv("s8", "s5")
        b.j(self.L("co_do_sub"))
        b.label(self.L("co_a_larger"))
        b.mv("s8", "s4")
        b.label(self.L("co_do_sub"))
        b.mv("a4", "s0")
        b.mv("a5", "s1")
        self._call("wsub")
        b.j(self.L("co_post"))
        b.label(self.L("co_eff_add"))
        b.mv("s8", "s4")
        b.mv("a4", "s0")
        b.mv("a5", "s1")
        self._call("wadd")
        b.label(self.L("co_post"))
        b.mv("a5", "s0")
        self._call("nibcount")
        b.mv("s10", "a2")
        b.mv("s9", "s2")
        # falls into round

    def _emit_round(self) -> None:
        """One-shot drop: max of the precision and etiny requirements (RHE)."""
        b, p = self.b, self.p
        b.label(self.L("round"))
        b.emit("addi", "t0", "s10", -self.prec)
        b.li("t1", self.layout.etiny)
        b.emit("sub", "t1", "t1", "s9")
        b.branch("bge", "t0", "t1", self.L("rd1"))
        b.mv("t0", "t1")
        b.label(self.L("rd1"))
        b.bgtz("t0", self.L("rd_need"))
        b.j(self.L("finalize"))
        b.label(self.L("rd_need"))
        b.mv("s11", "t0")
        b.branch("bge", "s10", "s11", self.L("rd_not_all"))
        # Every digit is below the round position: the value is under half an
        # ulp of 10^etiny, so it rounds to a signed zero at etiny.
        b.emit("add", "s9", "s9", "s11")
        b.j(self.L("zero_out"))
        b.label(self.L("rd_not_all"))
        b.mv("a4", "s11")
        b.mv("a5", "s0")
        self._call("rinfo")
        b.mv("s6", "a2")                           # round digit
        b.mv("s7", "a3")                           # sticky residue
        b.mv("a4", "s11")
        b.mv("a5", "s0")
        self._call("shr")
        b.emit("add", "s9", "s9", "s11")
        b.li("t0", 5)
        b.branch("blt", "t0", "s6", self.L("rd_up"))
        b.branch("bne", "s6", "t0", self.L("rd_after"))
        b.bnez("s7", self.L("rd_up"))
        b.emit("ld", "t1", "s0", 0)                # exact tie: round to even
        b.emit("andi", "t1", "t1", 1)
        b.bnez("t1", self.L("rd_up"))
        b.j(self.L("rd_after"))
        b.label(self.L("rd_up"))
        b.mv("a5", "s0")
        self._call("inc")
        b.label(self.L("rd_after"))
        b.mv("a5", "s0")
        self._call("nibcount")
        b.mv("s10", "a2")
        b.beqz("s10", self.L("zero_out"))
        b.li("t0", self.prec)
        b.branch("bge", "t0", "s10", self.L("finalize"))
        b.li("a4", 1)                              # 999.. -> 1000..: exact /10
        b.mv("a5", "s0")
        self._call("shr")
        b.emit("addi", "s9", "s9", 1)
        b.emit("addi", "s10", "s10", -1)
        # falls into finalize

    def _emit_finalize(self) -> None:
        b, p = self.b, self.p
        b.label(self.L("finalize"))
        b.emit("add", "t0", "s9", "s10")
        b.emit("addi", "t0", "t0", -1)             # adjusted exponent
        b.li("t1", self.layout.emax)
        b.branch("blt", "t1", "t0", self.L("inf_res"))
        b.li("t1", self.layout.etop)
        b.branch("bge", "t1", "s9", self.L("encode"))
        # Fold-down clamp: pad with zeros down to etop (always fits: the
        # clamp only fires on exact paths where digits + pad <= p).
        b.emit("sub", "a4", "s9", "t1")
        b.mv("a5", "s0")
        self._call("shl")
        b.li("s9", self.layout.etop)
        b.j(self.L("encode"))
        b.label(self.L("zero_out"))
        emit_clamp_exponent(b, self.layout, self.L("zc"), "s9", "t0")
        for w in range(self.K):
            b.emit("sd", "zero", "s0", 8 * w)
        b.j(self.L("encode"))
        b.label(self.L("inf_res"))
        emit_canonical_inf(b, self.layout, "s8")
        b.j(self.L("epilogue"))

    def _emit_encode(self) -> None:
        """Re-encode (s8, buffer at s0, s9) into a0[/a1] and return."""
        b, layout = self.b, self.layout
        b.label(self.L("encode"))
        if self.W == 1:
            b.emit("ld", "t3", "s0", 0)
            b.la("t0", TABLE_SYMBOLS["bcd2dpd"])
            b.li("t4", 0xFFF)
            b.emit("and", "t2", "t3", "t4")
            b.emit("slli", "t2", "t2", 1)
            b.emit("add", "t2", "t2", "t0")
            b.emit("lhu", "a2", "t2", 0)
            for declet in range(1, layout.declets):
                b.emit("srli", "t3", "t3", 12)
                b.emit("and", "t2", "t3", "t4")
                b.emit("slli", "t2", "t2", 1)
                b.emit("add", "t2", "t2", "t0")
                b.emit("lhu", "t6", "t2", 0)
                b.emit("slli", "t6", "t6", 10 * declet)
                b.emit("or", "a2", "a2", "t6")
            b.emit("srli", "t3", "t3", 12)         # MSD
            b.emit("addi", "a3", "s9", layout.bias)
            emit_encode_result(b, layout, self.L("res"), "s8", "a3", "t3",
                               ("a2",), layout.result, "t1", "t2")
        else:
            b.emit("ld", "a2", "s0", 0)
            b.emit("ld", "a3", "s0", 8)
            b.emit("ld", "a4", "s0", 16)
            b.la("t0", TABLE_SYMBOLS["bcd2dpd"])
            b.li("t5", 0xFFF)
            b.li("a6", 0)
            b.li("a7", 0)
            words = ("a2", "a3", "a4")
            for declet in range(layout.declets):
                bit = 12 * declet
                word, off = divmod(bit, 64)
                if off + 12 <= 64:
                    if off:
                        b.emit("srli", "t1", words[word], off)
                    else:
                        b.mv("t1", words[word])
                else:
                    b.emit("srli", "t1", words[word], off)
                    b.emit("slli", "t2", words[word + 1], 64 - off)
                    b.emit("or", "t1", "t1", "t2")
                b.emit("and", "t1", "t1", "t5")
                b.emit("slli", "t1", "t1", 1)
                b.emit("add", "t1", "t1", "t0")
                b.emit("lhu", "t1", "t1", 0)
                emit_place_declet(b, declet, "t1", ("a6", "a7"), "t2")
            b.emit("srli", "t6", "a4", 4)          # MSD (digit p-1)
            b.emit("andi", "t6", "t6", 0xF)
            b.li("t3", layout.bias)
            b.emit("add", "t3", "t3", "s9")
            emit_encode_result(b, layout, self.L("res"), "s8", "t3", "t6",
                               ("a6", "a7"), layout.result, "t1", "t2")
        b.label(self.L("epilogue"))
        b.epilogue(SAVED, self.extra)

    # ---------------------------------------------------------- orchestration
    def emit(self) -> str:
        b, p = self.b, self.p
        b.text()
        b.label(p)
        self._emit_entry()
        b.label(self.L("main"))
        b.prologue(SAVED, self.extra)
        if self.fused:
            self._emit_fma_main()
        else:
            self._emit_addsub_main()
        self._emit_core()
        self._emit_round()
        self._emit_finalize()
        self._emit_encode()
        self._emit_unpack()
        self._emit_nibcount()
        self._emit_shl()
        self._emit_shr()
        self._emit_rinfo()
        self._emit_inc()
        self._emit_wcmp()
        if self.fused and self.soft:
            self._emit_copy()
        self._emit_wadd_wsub()
        if self.fused and not self.soft:
            self._emit_accrd()
        emit_dummy_functions(b, self.hw, ADDSUB_FMA_DUMMY_BODIES)
        return p


def emit_addsub_kernel(b, spec, label: str, solution: str,
                       mnemonic: str) -> str:
    """Emit the ``mnemonic`` (``add``/``sub``) kernel of Table IV row
    ``solution`` for ``spec``; returns its entry label.

    Calling convention matches the multiply kernels: one-word formats take
    X in ``a0`` and Y in ``a1`` and return in ``a0``; two-word formats take
    X in ``a0``/``a1`` and Y in ``a2``/``a3`` and return in ``a0``/``a1``.
    """
    if mnemonic not in ("add", "sub"):
        raise ValueError(f"emit_addsub_kernel handles add/sub, not {mnemonic!r}")
    return _OpKernelEmitter(b, spec, label, solution, mnemonic).emit()


def emit_fma_kernel(b, spec, label: str, solution: str) -> str:
    """Emit the fused multiply-add kernel of Table IV row ``solution`` for
    ``spec``; returns its entry label.

    One-word formats take X/Y/Z in ``a0``/``a1``/``a2``; two-word formats in
    ``a0``/``a1``, ``a2``/``a3``, ``a4``/``a5``.  The product is exact and the
    single rounding happens in the shared aligned-add core.
    """
    return _OpKernelEmitter(b, spec, label, solution, "fma").emit()
