"""Tests for the hardware component models and the RoCC decimal accelerator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.decnumber.bcd import bcd_to_int, int_to_bcd
from repro.errors import AcceleratorError
from repro.hw.bcd_adder import BcdCarryLookaheadAdder
from repro.hw.bcd_multiplier import BcdMultiplier
from repro.hw.binary_to_bcd import BinaryToBcdConverter
from repro.hw.cost import AreaReport, GateCost, register_cost
from repro.isa.rocc import DecimalFunct
from repro.rocc.decimal_accel import (
    ACC_HI_SELECTOR,
    ACC_LO_SELECTOR,
    STATUS_SELECTOR,
    DecimalAccelerator,
    DecimalAcceleratorConfig,
)
from repro.rocc.regfile import AcceleratorRegisterFile


# ---------------------------------------------------------------------------
# BCD adder / multiplier / converter
# ---------------------------------------------------------------------------
class TestBcdAdder:
    @given(st.integers(0, 10 ** 16 - 1), st.integers(0, 10 ** 16 - 1))
    @settings(max_examples=200, deadline=None)
    def test_addition_matches_integer_reference(self, a, b):
        adder = BcdCarryLookaheadAdder(width_digits=16)
        result = adder.add(int_to_bcd(a), int_to_bcd(b))
        expected = a + b
        assert bcd_to_int(result.value) == expected % 10 ** 16
        assert result.carry_out == (1 if expected >= 10 ** 16 else 0)

    def test_carry_in(self):
        adder = BcdCarryLookaheadAdder(width_digits=4)
        result = adder.add(int_to_bcd(9999), int_to_bcd(0), carry_in=1)
        assert bcd_to_int(result.value) == 0 and result.carry_out == 1

    def test_rejects_invalid_bcd_and_wide_operands(self):
        adder = BcdCarryLookaheadAdder(width_digits=4)
        with pytest.raises(AcceleratorError):
            adder.add(0xA, 0)
        with pytest.raises(AcceleratorError):
            adder.add(int_to_bcd(12345), 0)

    def test_cost_scales_with_width(self):
        small = BcdCarryLookaheadAdder(width_digits=8).cost()
        large = BcdCarryLookaheadAdder(width_digits=32).cost()
        assert large.gate_equivalents > small.gate_equivalents
        assert large.logic_levels >= small.logic_levels


class TestBcdMultiplierAndConverter:
    @given(st.integers(0, 10 ** 16 - 1), st.integers(0, 10 ** 16 - 1))
    @settings(max_examples=50, deadline=None)
    def test_multiplier_matches_reference(self, a, b):
        multiplier = BcdMultiplier(operand_digits=16)
        result = multiplier.multiply(int_to_bcd(a), int_to_bcd(b))
        assert bcd_to_int(result.value) == a * b
        assert result.cycles > 16

    def test_multiplier_rejects_wide_operand(self):
        with pytest.raises(AcceleratorError):
            BcdMultiplier(operand_digits=4).multiply(int_to_bcd(123456), 0)

    @given(st.integers(0, 10 ** 19))
    @settings(max_examples=100, deadline=None)
    def test_converter_matches_reference(self, value):
        converter = BinaryToBcdConverter(input_bits=64, output_digits=20)
        result = converter.convert(value)
        assert bcd_to_int(result.value) == value
        assert result.cycles == 64

    def test_converter_range_checks(self):
        converter = BinaryToBcdConverter(input_bits=8, output_digits=2)
        with pytest.raises(AcceleratorError):
            converter.convert(256)
        with pytest.raises(AcceleratorError):
            converter.convert(130)  # needs 3 digits

    def test_cost_reports(self):
        report = BcdMultiplier().cost()
        assert report.total_gate_equivalents > 0
        assert "TOTAL" in report.render()


class TestCostModel:
    def test_gatecost_addition_and_scaling(self):
        a = GateCost("a", 100.0, 3, flip_flops=10)
        b = GateCost("b", 50.0, 5, flip_flops=2)
        combined = a + b
        assert combined.gate_equivalents == 150.0
        assert combined.logic_levels == 5
        assert a.scaled(3).flip_flops == 30

    def test_area_report_totals(self):
        report = AreaReport()
        report.add(register_cost("regs", 64))
        report.add(GateCost("logic", 123.0, 7))
        assert report.total_flip_flops == 64
        assert report.critical_path_levels == 7
        assert report.as_rows()[-1]["component"] == "TOTAL"


# ---------------------------------------------------------------------------
# Interface FSM timing and register file
# ---------------------------------------------------------------------------
class TestInterfaceFsm:
    """Fig. 5 in closed form: Idle -> function state (held for the datapath's
    busy cycles) -> Read/Write Resp when answering -> Idle, one cycle an edge."""

    def test_command_with_response_visits_resp_state(self, accelerator):
        has_response, _, busy = _execute(accelerator, DecimalFunct.RD, rs2=3, xd=True)
        assert has_response
        assert busy == 3  # Idle -> RD -> Read Resp -> Idle

    def test_command_without_response(self, accelerator):
        has_response, _, busy = _execute(
            accelerator, DecimalFunct.DEC_ADD, rd=2, rs1=0, rs2=1
        )
        assert not has_response
        assert busy == 2  # one adder pass, no Write Resp hop
        _, _, answered = _execute(
            accelerator, DecimalFunct.DEC_ADD, rs1=0, rs2=1, xd=True
        )
        assert answered == busy + 1

    def test_figure5_states_all_reachable(self, accelerator):
        """Every Fig. 5 function state is one row of the decode table."""
        names = {row.name for row in accelerator.commands.values()}
        assert names == set(DecimalFunct.BY_NAME)


class TestRegisterFile:
    def test_read_write_clear(self):
        regfile = AcceleratorRegisterFile(num_registers=4, width_bits=16)
        regfile.write(2, 0x12345)
        assert regfile.read(2) == 0x2345  # masked to width
        regfile.clear_all()
        assert regfile.snapshot() == (0, 0, 0, 0)

    def test_bounds(self):
        regfile = AcceleratorRegisterFile(num_registers=4)
        with pytest.raises(AcceleratorError):
            regfile.read(4)
        with pytest.raises(AcceleratorError):
            AcceleratorRegisterFile(num_registers=0)


# ---------------------------------------------------------------------------
# Decimal accelerator
# ---------------------------------------------------------------------------
def _execute(accelerator, funct7, rd=0, rs1=0, rs2=0, rs1_value=0,
             rs2_value=0, xd=False, xs1=False, xs2=False, memory=None):
    """One command; ``(has_response, value, busy_cycles)``."""
    return accelerator.execute(funct7, rd, rs1, rs2, rs1_value, rs2_value,
                               xd, xs1, xs2, memory)


class TestDecimalAccelerator:
    def test_write_then_read(self, accelerator):
        _execute(accelerator, DecimalFunct.WR, rs1_value=0x1234, rs2=3, xs1=True)
        has_response, value, _ = _execute(accelerator, DecimalFunct.RD, rs2=3, xd=True)
        assert has_response and value == 0x1234

    def test_dec_add_core_operands(self, accelerator):
        _, value, _ = _execute(
            accelerator, DecimalFunct.DEC_ADD, rs1_value=int_to_bcd(999),
            rs2_value=int_to_bcd(1), xd=True, xs1=True, xs2=True,
        )
        assert bcd_to_int(value) == 1000

    def test_dec_add_rejects_non_bcd(self, accelerator):
        with pytest.raises(AcceleratorError):
            _execute(accelerator, DecimalFunct.DEC_ADD, rs1_value=0xAB,
                     rs2_value=0, xd=True, xs1=True, xs2=True)

    def test_dec_addsub_rejects_non_bcd_above_a_narrow_register(self):
        """Digits masked off above the register width never reach the adder,
        so DEC_ADDSUB must still reject a bad one in a core operand."""
        narrow = DecimalAccelerator(DecimalAcceleratorConfig(
            digits=4, register_width_digits=5, accumulator_digits=8,
            adder_width_digits=5,
        ))
        _, value, _ = _execute(narrow, DecimalFunct.DEC_ADDSUB,
                               rs1_value=0x900000 | int_to_bcd(7),
                               rs2_value=int_to_bcd(5), xd=True, xs1=True, xs2=True)
        assert value == int_to_bcd(2)  # the valid sixth digit is masked off
        for operands in ((0xA00007, 0x5), (0x7, 0xB00005)):
            with pytest.raises(AcceleratorError, match="not valid packed BCD"):
                _execute(narrow, DecimalFunct.DEC_ADDSUB, rs1_value=operands[0],
                         rs2_value=operands[1], xd=True, xs1=True, xs2=True)

    def test_method1_sequence_computes_product(self, accelerator):
        """CLR_ALL + WR + 8x DEC_ADD + 16x DEC_ACCUM + 2x RD == X * Y."""
        x, y = 9876543210987654, 8765432109876543
        _execute(accelerator, DecimalFunct.CLR_ALL)
        _execute(accelerator, DecimalFunct.WR, rs1_value=int_to_bcd(x), rs2=1,
                 xs1=True)
        for index in range(1, 9):
            _execute(accelerator, DecimalFunct.DEC_ADD, rd=index + 1,
                     rs1=index, rs2=1)
        for position in reversed(range(16)):
            digit = (y // 10 ** position) % 10
            _execute(accelerator, DecimalFunct.DEC_ACCUM, rs1_value=digit,
                     xs1=True)
        _, low, _ = _execute(accelerator, DecimalFunct.RD, rs2=ACC_LO_SELECTOR,
                             xd=True)
        _, high, _ = _execute(accelerator, DecimalFunct.RD, rs2=ACC_HI_SELECTOR,
                              xd=True)
        product = bcd_to_int((high << 64) | low)
        assert product == x * y

    def test_load_from_memory(self, accelerator):
        class FakeMemory:
            def read(self, address, size):
                assert (address, size) == (0x100, 8)
                return 0x55

        _execute(accelerator, DecimalFunct.LD, rs1_value=0x100, rs2=2,
                 xs1=True, memory=FakeMemory())
        assert accelerator.regfile.read(2) == 0x55

    def test_binary_accumulate(self, accelerator):
        _execute(accelerator, DecimalFunct.ACCUM, rd=5, rs1_value=40, xs1=True)
        _, value, _ = _execute(accelerator, DecimalFunct.ACCUM, rd=5,
                               rs1_value=2, xs1=True, xd=True)
        assert value == 42

    def test_dec_cnv(self, accelerator):
        _, value, busy_cycles = _execute(
            accelerator, DecimalFunct.DEC_CNV, rs1_value=987654, xd=True, xs1=True
        )
        assert bcd_to_int(value) == 987654
        assert busy_cycles >= 64

    def test_dec_mul_requires_multiplier_option(self):
        plain = DecimalAccelerator()
        with pytest.raises(AcceleratorError):
            _execute(plain, DecimalFunct.DEC_MUL, rs1_value=0x2, rs2_value=0x3,
                     xs1=True, xs2=True)
        wide = DecimalAccelerator(DecimalAcceleratorConfig(include_multiplier=True))
        _execute(wide, DecimalFunct.DEC_MUL, rs1_value=int_to_bcd(25),
                 rs2_value=int_to_bcd(4), xs1=True, xs2=True)
        assert bcd_to_int(wide.accumulator) == 100

    def test_status_register_carry(self, accelerator):
        _execute(accelerator, DecimalFunct.DEC_ADD,
                 rs1_value=int_to_bcd(10 ** 16 - 1) | (0x9999 << 64),
                 rs2_value=1, xd=True, xs1=True, xs2=True)
        _, status, _ = _execute(accelerator, DecimalFunct.RD,
                                rs2=STATUS_SELECTOR, xd=True)
        assert status & 1 == 0  # 20-digit operand did not overflow 32 digits

    def test_clear_resets_everything(self, accelerator):
        _execute(accelerator, DecimalFunct.WR, rs1_value=5, rs2=1, xs1=True)
        accelerator.accumulator = 123
        _execute(accelerator, DecimalFunct.CLR_ALL)
        assert accelerator.accumulator == 0
        assert accelerator.regfile.read(1) == 0

    def test_unknown_function_rejected(self, accelerator):
        with pytest.raises(AcceleratorError):
            _execute(accelerator, 0x7F)

    def test_statistics_and_area(self, accelerator):
        _execute(accelerator, DecimalFunct.CLR_ALL)
        assert accelerator.commands_executed == 1
        assert accelerator.function_counts == {"CLR_ALL": 1}
        report = accelerator.area_report()
        assert report.total_gate_equivalents > 1000
        names = [c.name for c in report.components]
        assert any("BCD-CLA" in name for name in names)

    def test_config_validation(self):
        with pytest.raises(AcceleratorError):
            DecimalAcceleratorConfig(register_width_digits=16)
        with pytest.raises(AcceleratorError):
            DecimalAcceleratorConfig(accumulator_digits=20)

    def test_reset(self, accelerator):
        accelerator.execute(
            funct7=DecimalFunct.CLR_ALL, rd=0, rs1=0, rs2=0, rs1_value=0,
            rs2_value=0, xd=False, xs1=False, xs2=False, memory=None,
        )
        assert accelerator.commands_executed == 1
        accelerator.reset()
        assert accelerator.commands_executed == 0
        assert not accelerator.function_counts
