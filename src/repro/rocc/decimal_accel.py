"""The decimal RoCC accelerator (paper Fig. 4, Table II instruction set).

The accelerator contains (Fig. 4): a register set, a BCD carry-lookahead
adder, control logic, and the decode/interface and execution FSMs.  On top of
those, this model adds a wide BCD accumulator used by ``DEC_ACCUM`` so that a
full 32-digit product can be accumulated inside the accelerator — this is how
the Method-1 kernel keeps the paper's "accumulate partial products in
hardware" step functionally exact for decimal64 operands (see DESIGN.md).

The decode logic is one table keyed by ``funct7``
(:attr:`DecimalAccelerator.commands`): each row names the function's
handler, the flags its commands must carry, whether it answers on ``xd`` and
its busy cycles.  The interface FSM of Fig. 5 walks Idle -> function state
(held for the datapath's busy cycles) -> Read/Write Resp (only when the
command answers) -> Idle at one cycle per edge, so a command occupies the
accelerator ``max(busy, 1) + 1 + has_response`` cycles; the table stores
that closed form.

Operand selection follows the RoCC flag semantics exactly as in the paper:
when ``xs1``/``xs2`` is set the operand value travels with the command from a
Rocket core register, otherwise the corresponding 5-bit field addresses the
accelerator's own register set; when ``xd`` is set the core blocks until the
accelerator responds with a value for core register ``rd``, otherwise the
result stays inside the accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decnumber.bcd import is_valid_bcd
from repro.errors import AcceleratorError
from repro.hw.bcd_adder import BcdCarryLookaheadAdder
from repro.hw.bcd_multiplier import BcdMultiplier
from repro.hw.binary_to_bcd import BinaryToBcdConverter
from repro.hw.cost import AreaReport, GateCost, register_cost
from repro.isa.rocc import DecimalFunct
from repro.rocc.interface import XD, XS1, XS2, Accelerator, CommandRow
from repro.rocc.pipeline import AcceleratorPipeline
from repro.rocc.regfile import AcceleratorRegisterFile

#: RD selector values above the register file: the two low accumulator words
#: and the status register (the original decimal64 read surface).
ACC_LO_SELECTOR = 16
ACC_HI_SELECTOR = 17
STATUS_SELECTOR = 18

#: RD selectors for accumulator words beyond the first two (wider formats):
#: word k of the accumulator reads through ``ACC_WORD_SELECTORS[k]``.  The
#: low two words keep their historic selector values so decimal64 kernels
#: are unchanged; words 2+ continue after the status register.
ACC_WORD_SELECTORS = (ACC_LO_SELECTOR, ACC_HI_SELECTOR, 19, 20, 21, 22)

#: RD selectors for word lanes of wide register-file registers.  These do
#: not fit the 5-bit rs2 field, so kernels pass them by value (``xs2=1``):
#: ``selector = REGFILE_WORD_SELECTOR_BASE + 4 * register + lane``.
REGFILE_WORD_SELECTOR_BASE = 64
REGFILE_WORD_LANES = 4


def acc_word_selector(word: int) -> int:
    """RD selector for accumulator word ``word`` (64 bits each)."""
    if not 0 <= word < len(ACC_WORD_SELECTORS):
        raise AcceleratorError(f"no RD selector for accumulator word {word}")
    return ACC_WORD_SELECTORS[word]


def regfile_word_selector(register: int, word: int) -> int:
    """RD selector (passed by value) for one word lane of a wide register."""
    if not 0 <= word < REGFILE_WORD_LANES:
        raise AcceleratorError(f"register word lane out of range: {word}")
    return REGFILE_WORD_SELECTOR_BASE + REGFILE_WORD_LANES * register + word

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class DecimalAcceleratorConfig:
    """Datapath configuration (the co-design knobs a framework user can turn).

    ``digits`` is the operand digit width the datapath is sized for — the
    coefficient precision of the interchange format the accelerator serves
    (16 for decimal64, 34 for decimal128).  Register width, accumulator
    width and adder pass counts all follow from it; use :meth:`for_format`
    to derive the whole configuration from a format spec.
    """

    num_registers: int = 16
    register_width_digits: int = 20
    accumulator_digits: int = 32
    adder_width_digits: int = 20
    include_multiplier: bool = False
    include_converter: bool = True
    digits: int = 16
    #: Microarchitecture knobs (docs/pipeline.md).  ``pipeline_depth`` is the
    #: physical register stage count of the staged datapath; ``issue_width``
    #: the number of stage-0 issue slots.  The 1/1 default is the paper's
    #: blocking FSM.
    pipeline_depth: int = 1
    issue_width: int = 1

    def __post_init__(self) -> None:
        if self.digits < 1:
            raise AcceleratorError("operand digit width must be positive")
        if self.pipeline_depth < 1:
            raise AcceleratorError("pipeline depth must be positive")
        if self.issue_width < 1:
            raise AcceleratorError("issue width must be positive")
        if self.adder_width_digits < 1:
            raise AcceleratorError("adder width must be at least one digit")
        if self.register_width_digits < self.digits + 1:
            # Multiples of a ``digits``-digit coefficient reach digits + 1.
            raise AcceleratorError(
                f"register width must hold at least {self.digits + 1} digits "
                f"for {self.digits}-digit operands"
            )
        if self.accumulator_digits < 2 * self.digits:
            raise AcceleratorError(
                f"the accumulator must hold a full {2 * self.digits}-digit "
                f"product of {self.digits}-digit operands"
            )

    @classmethod
    def for_format(cls, fmt, **overrides) -> "DecimalAcceleratorConfig":
        """Datapath sized for an interchange format (spec or name).

        The decimal64 result is exactly the historical default
        configuration (16-digit operands, 20-digit registers, 32-digit
        accumulator, 20-digit adder); wider formats scale the same shape.
        """
        from repro.decnumber.formats import get_format

        spec = get_format(fmt)
        params = dict(
            digits=spec.precision,
            register_width_digits=spec.precision + 4,
            accumulator_digits=spec.product_digits,
            adder_width_digits=spec.precision + 4,
        )
        params.update(overrides)
        return cls(**params)

    @property
    def accumulator_words(self) -> int:
        """64-bit words needed to read the full accumulator back."""
        return -(-(4 * self.accumulator_digits) // 64)

    @property
    def register_words(self) -> int:
        """64-bit word lanes of one register-file register."""
        return -(-(4 * self.register_width_digits) // 64)

    def area_report(self) -> AreaReport:
        """Hardware overhead of this configuration (no accelerator needed).

        This is the single area model: :meth:`DecimalAccelerator.
        area_report` delegates here, and solution-level overhead queries
        (:meth:`repro.core.solution.CoDesignSolution.hardware_overhead`)
        read it straight off the config instead of instantiating a full
        accelerator.
        """
        report = AreaReport()
        report.add(
            AcceleratorRegisterFile(
                num_registers=self.num_registers,
                width_bits=4 * self.register_width_digits,
            ).cost()
        )
        report.add(
            register_cost(
                f"accumulator ({self.accumulator_digits} digits)",
                4 * self.accumulator_digits,
            )
        )
        report.add(BcdCarryLookaheadAdder(width_digits=self.adder_width_digits).cost())
        report.add(GateCost("decode + interface FSM", 350.0, 4, flip_flops=18))
        report.add(GateCost("operand multiplexers", 4.0 * 2 * self.accumulator_digits, 2))
        if self.include_multiplier:
            for component in BcdMultiplier(operand_digits=self.digits).cost().components:
                report.add(component)
        if self.include_converter:
            converter = BinaryToBcdConverter(
                input_bits=64, output_digits=self.register_width_digits
            )
            for component in converter.cost().components:
                report.add(component)
        # Staged-pipeline overhead (docs/pipeline.md).  Both terms are zero at
        # the blocking-equivalent depth=1 / width=1 point, so the paper's
        # Table V area is unchanged for the baseline design.
        if self.pipeline_depth > 1:
            # One latch rank per stage boundary, wide enough for the datapath
            # result in flight plus per-stage control/valid bits.
            boundary_bits = 4 * self.accumulator_digits + 16
            report.add(
                register_cost(
                    f"pipeline stage registers ({self.pipeline_depth} stages)",
                    (self.pipeline_depth - 1) * boundary_bits,
                )
            )
        if self.issue_width > 1:
            # Each extra issue slot buffers a full RoCC command (two 64-bit
            # operands + funct7/rd/rs1/rs2 + flags) and a pending response
            # (64-bit data + rd tag), plus the select/arbiter logic.
            command_bits = 2 * 64 + 7 + 3 * 5 + 3
            response_bits = 64 + 5
            extra = self.issue_width - 1
            report.add(
                register_cost(
                    f"issue/retire queues (width {self.issue_width})",
                    extra * (command_bits + response_bits),
                )
            )
            report.add(
                GateCost(
                    "issue arbiter + retire select",
                    60.0 * extra,
                    3,
                )
            )
        return report


class DecimalAccelerator(Accelerator):
    """Executes the Table II decimal instructions behind the RoCC interface."""

    name = "decimal-accelerator"

    def __init__(self, config: DecimalAcceleratorConfig = None) -> None:
        super().__init__()
        self.config = config if config is not None else DecimalAcceleratorConfig()
        self.regfile = AcceleratorRegisterFile(
            num_registers=self.config.num_registers,
            width_bits=4 * self.config.register_width_digits,
        )
        # One functional adder wide enough for the accumulator; the *hardware*
        # adder is adder_width_digits wide and wider additions take multiple
        # passes (reflected in busy cycles, not in values).
        self.adder = BcdCarryLookaheadAdder(width_digits=self.config.accumulator_digits)
        self.multiplier = (
            BcdMultiplier(operand_digits=self.config.digits)
            if self.config.include_multiplier
            else None
        )
        self.converter = (
            BinaryToBcdConverter(input_bits=64, output_digits=self.config.register_width_digits)
            if self.config.include_converter
            else None
        )
        self.pipeline = AcceleratorPipeline(
            depth=self.config.pipeline_depth,
            width=self.config.issue_width,
        )
        self.accumulator = 0
        self.status = 0
        self._registers = self.config.num_registers
        self._acc_mask = (1 << (4 * self.config.accumulator_digits)) - 1
        self._reg_mask = (1 << (4 * self.config.register_width_digits)) - 1
        self._reg_nines = int("9" * self.config.register_width_digits, 16)
        self.commands = self._command_table()

    # ------------------------------------------------------------ decode table
    def _command_table(self) -> dict:
        """funct7 -> :class:`~repro.rocc.interface.CommandRow`."""
        config = self.config
        reg = config.register_width_digits
        acc = config.accumulator_digits
        passes = self._adder_passes

        def fixed(cycles):
            return (cycles,) * 8

        # DEC_ADD sizes its passes for a 16-digit core word when an operand
        # travels with the command.
        dec_add = tuple(
            passes(max(reg, 16) if flags & (XS1 | XS2) else reg)
            for flags in range(8)
        )
        # Without the unit its handler raises, so its cycles never count.
        multiply = self.multiplier.cycles if self.multiplier else 0
        convert = self.converter.input_bits if self.converter else 0
        rows = (
            # funct7, handler, needed flags, answers on xd, datapath cycles
            (DecimalFunct.WR, self._write, XS1, False, fixed(1)),
            (DecimalFunct.RD, self._read, XD, True, fixed(1)),
            (DecimalFunct.LD, self._load, XS1, False, fixed(2)),
            (DecimalFunct.ACCUM, self._accum, XS1, True, fixed(1)),
            (DecimalFunct.DEC_ADD, self._dec_add, 0, True, dec_add),
            (DecimalFunct.CLR_ALL, self._clear, 0, False, fixed(1)),
            (DecimalFunct.DEC_CNV, self._convert, XS1, True, fixed(convert)),
            (DecimalFunct.DEC_MUL, self._multiply, 0, True, fixed(multiply)),
            (DecimalFunct.DEC_ACCUM, self._dec_accum, 0, True, fixed(passes(acc))),
            (DecimalFunct.DEC_ADDSUB, self._dec_addsub, 0, True,
             fixed(2 * passes(reg))),  # complement pass + add pass
            (DecimalFunct.DEC_FMA_ACC, self._dec_fma_acc, 0, True,
             fixed(passes(acc))),
            (DecimalFunct.DEC_ADDC, self._dec_addc, XD | XS1 | XS2, True,
             fixed(passes(16))),
            (DecimalFunct.DEC_SUBB, self._dec_subb, XD | XS1 | XS2, True,
             fixed(2 * passes(16))),  # complement pass + add pass
        )
        return {
            funct7: CommandRow(
                name=DecimalFunct.name_for(funct7),
                handler=handler,
                needs=needs,
                responds=responds,
                # The Fig. 5 walk: one cycle into the function state, the
                # datapath's busy cycles there, the response hop, Idle.
                busy=tuple(
                    max(cycles[flags], 1) + 1 + (1 if responds and flags & XD else 0)
                    for flags in range(8)
                ),
            )
            for funct7, handler, needs, responds, cycles in rows
        }

    def _adder_passes(self, digits_needed: int) -> int:
        """Datapath passes of the (narrower) hardware adder for a wide add."""
        width = self.config.adder_width_digits
        return max(1, -(-digits_needed // width))  # ceil division

    # ---------------------------------------------------------------- handlers
    # Every handler takes the whole command and returns the response value;
    # ``execute`` has already checked the row's required flags.

    # WR: move a core register value into the accelerator register set.
    # The rd field selects the destination *word lane* for registers wider
    # than one machine word: lane 0 (the decimal64 kernels' encoding)
    # replaces the whole register, lane k > 0 merges bits [64k, 64k+64).
    def _write(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        index = int(rs2_value if xs2 else rs2) % self._registers
        if rd:
            self.regfile.write_word(index, rd, rs1_value)
        else:
            self.regfile.write(index, rs1_value)
        return 0

    # RD: respond to the core with a value from the accelerator.
    def _read(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        selector = int(rs2_value if xs2 else rs2)
        if selector == STATUS_SELECTOR:
            return self.status
        if selector in ACC_WORD_SELECTORS:
            word = ACC_WORD_SELECTORS.index(selector)
            return (self.accumulator >> (64 * word)) & _MASK64
        if selector >= REGFILE_WORD_SELECTOR_BASE:
            offset = selector - REGFILE_WORD_SELECTOR_BASE
            index, word = divmod(offset, REGFILE_WORD_LANES)
            return self.regfile.read_word(index % self._registers, word)
        return self.regfile.read(selector % self._registers) & _MASK64

    # LD: fetch a 64-bit value from memory through the RoCC memory interface.
    def _load(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        if memory is None:
            raise AcceleratorError("LD needs a memory port")
        destination = rs2_value if xs2 else rs2
        value = memory.read(rs1_value, 8)
        self.regfile.write(int(destination) % self._registers, value)
        return 0

    # ACCUM: binary accumulate into an accelerator register.
    def _accum(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        index = rd % self._registers
        total = (self.regfile.read(index) + rs1_value) & self._reg_mask
        self.regfile.write(index, total)
        return total & _MASK64

    # DEC_ADD: BCD addition of two operands through the BCD-CLA (which
    # rejects non-BCD digits).
    def _dec_add(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        op1 = rs1_value if xs1 else self.regfile.read(rs1)
        op2 = rs2_value if xs2 else self.regfile.read(rs2)
        result = self.adder.add(op1, op2)
        self.status = (self.status & ~1) | result.carry_out
        if xd:
            return result.value & _MASK64
        self.regfile.write(rd % self._registers, result.value)
        return 0

    # CLR_ALL: clear the register set, accumulator and status.
    def _clear(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        self.regfile.clear_all()
        self.accumulator = 0
        self.status = 0
        return 0

    # DEC_CNV: binary-to-BCD conversion.
    def _convert(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        if self.converter is None:
            raise AcceleratorError("this configuration has no converter")
        value = self.converter.convert(rs1_value).value
        if xd:
            return value & _MASK64
        self.regfile.write(rd % self._registers, value)
        return 0

    # DEC_MUL: full BCD multiplication into the accumulator.
    def _multiply(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        if self.multiplier is None:
            raise AcceleratorError(
                "this configuration has no hardware multiplier "
                "(include_multiplier=False)"
            )
        op1 = (rs1_value if xs1 else self.regfile.read(rs1)) & _MASK64
        op2 = (rs2_value if xs2 else self.regfile.read(rs2)) & _MASK64
        product = self.multiplier.multiply(op1, op2).value
        self.accumulator = product & self._acc_mask
        return self.accumulator & _MASK64

    # DEC_ACCUM: accumulator = (accumulator << shift digits) + regfile[k].
    def _dec_accum(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        index = int(rs1_value if xs1 else rs1) % self._registers
        shift_digits = int(rs2_value) if xs2 else 1
        if not 0 <= shift_digits <= self.config.accumulator_digits:
            raise AcceleratorError(f"DEC_ACCUM shift out of range: {shift_digits}")
        shifted = (self.accumulator << (4 * shift_digits)) & self._acc_mask
        if shifted >> (4 * shift_digits) != self.accumulator & (
            self._acc_mask >> (4 * shift_digits)
        ):
            self.status |= 0b10  # accumulator overflow (should not happen for decimal64)
        addend = self.regfile.read(index)
        result = self.adder.add(shifted, addend & self._acc_mask)
        self.accumulator = result.value
        self.status = (self.status & ~1) | result.carry_out
        return self.accumulator & _MASK64

    # DEC_ADDSUB: BCD subtraction through the adder (nines-complement pass
    # followed by an add with carry-in, the classic two-pass use of one
    # BCD-CLA).  result = op1 - op2 mod 10^register_width; status bit 0 is
    # the borrow (1 when op1 < op2 and the result wrapped).
    def _dec_addsub(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        op1 = rs1_value if xs1 else self.regfile.read(rs1)
        op2 = rs2_value if xs2 else self.regfile.read(rs2)
        width = self.config.register_width_digits
        # The adder checks every digit inside the register width (a bad op2
        # digit leaves a bad complement digit); core-operand digits above
        # it are masked off before the adder sees them, so check them here.
        for number, operand in enumerate((op1, op2), 1):
            if not is_valid_bcd(operand >> (4 * width)):
                raise AcceleratorError(
                    f"DEC_ADDSUB operand {number} is not valid packed BCD"
                )
        # Digit-wise 9 - d never borrows, so the complement is plain binary.
        complement = self._reg_nines - (op2 & self._reg_mask)
        result = self.adder.add(op1 & self._reg_mask, complement, carry_in=1)
        carry = 1 if (result.value >> (4 * width)) or result.carry_out else 0
        value = result.value & self._reg_mask
        self.status = (self.status & ~1) | (1 - carry)
        if xd:
            return value & _MASK64
        self.regfile.write(rd % self._registers, value)
        return 0

    # DEC_FMA_ACC: accumulator += regfile[k] << shift digits.  The FMA
    # kernels use it to merge an aligned addend into the accumulated product
    # without reading the accumulator back first; unlike DEC_ACCUM the
    # accumulator itself stays in place and the *addend* is shifted.
    # Status bit 0 latches the carry out of the accumulator width.
    def _dec_fma_acc(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        index = int(rs1_value if xs1 else rs1) % self._registers
        shift_digits = int(rs2_value) if xs2 else 0
        if not 0 <= shift_digits <= self.config.accumulator_digits:
            raise AcceleratorError(f"DEC_FMA_ACC shift out of range: {shift_digits}")
        shifted = self.regfile.read(index) << (4 * shift_digits)
        if shifted & ~self._acc_mask:
            self.status |= 0b10  # addend digits shifted past the accumulator
        result = self.adder.add(self.accumulator, shifted & self._acc_mask)
        self.accumulator = result.value & self._acc_mask
        self.status = (self.status & ~1) | result.carry_out
        return self.accumulator & _MASK64

    # DEC_ADDC / DEC_SUBB: the chunked multi-word interface.  The core
    # streams a long BCD number through the adder one 16-digit machine word
    # per command; the carry/borrow between words lives in status bit 0
    # (consumed as carry-in, latched as carry-out) and the result word comes
    # back on the response channel.  One command per word replaces the
    # DEC_ADD / carry add / RD / RD sequence the chunked kernels needed with
    # carry chaining done on the core side.
    def _dec_addc(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        result = self.adder.add(
            rs1_value & _MASK64, rs2_value & _MASK64, carry_in=self.status & 1
        )
        carry = 1 if result.value >> 64 else 0
        self.status = (self.status & ~1) | carry
        return result.value & _MASK64

    def _dec_subb(self, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2, memory):
        borrow_in = self.status & 1
        # Digit-wise 9 - d never borrows, so the complement is plain binary
        # (and a bad op2 digit leaves a bad complement digit for the adder);
        # a carry out of digit 16 means the word did *not* borrow.
        complement = 0x9999999999999999 - (rs2_value & _MASK64)
        result = self.adder.add(rs1_value & _MASK64, complement, carry_in=1 - borrow_in)
        carry = 1 if result.value >> 64 else 0
        self.status = (self.status & ~1) | (1 - carry)
        return result.value & _MASK64

    # ------------------------------------------------------------------- state
    def reset(self) -> None:
        super().reset()  # counters + pipeline occupancy
        self.regfile.clear_all()
        self.regfile.reset_statistics()
        self.accumulator = 0
        self.status = 0

    # -------------------------------------------------------------------- cost
    def area_report(self) -> AreaReport:
        """Hardware overhead of this accelerator configuration.

        Pure function of the configuration — see
        :meth:`DecimalAcceleratorConfig.area_report`.
        """
        return self.config.area_report()
