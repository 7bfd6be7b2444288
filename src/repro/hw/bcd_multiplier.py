"""Iterative BCD multiplier built around the BCD carry-lookahead adder.

This models the *larger* hardware option (the paper's DEC_MUL instruction):
a digit-serial multiplier that generates multiplicand multiples with the BCD
adder and accumulates partial products internally.  It trades more hardware
(wide accumulator, multiple registers, control) for fewer instructions on the
software side — one of the Pareto points the evaluation framework is meant to
explore.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AcceleratorError
from repro.decnumber.bcd import bcd_to_int, int_to_bcd, is_valid_bcd
from repro.hw.bcd_adder import BcdCarryLookaheadAdder
from repro.hw.cost import AreaReport, GateCost, register_cost


@dataclass(frozen=True)
class BcdMultiplyResult:
    """Outcome of one BCD multiplication."""

    value: int      # packed BCD product (2x operand width)
    cycles: int     # datapath cycles the iterative multiply needed


class BcdMultiplier:
    """Digit-serial BCD multiplier: one digit of the multiplier per step."""

    def __init__(self, operand_digits: int = 16) -> None:
        self.operand_digits = operand_digits
        self.adder = BcdCarryLookaheadAdder(width_digits=2 * operand_digits)
        #: Datapath cycles of one multiply: eight adder passes generate the
        #: multiples MM[i] = MM[i-1] + X (2..9), then one pass per
        #: multiplier digit accumulates them, MSD first.
        self.cycles = (8 + operand_digits) * self.adder.latency_cycles

    def multiply(self, multiplicand: int, multiplier: int) -> BcdMultiplyResult:
        """Multiply two packed-BCD operands of at most ``operand_digits`` digits."""
        limit = (1 << (4 * self.operand_digits)) - 1
        if multiplicand & ~limit or multiplier & ~limit:
            raise AcceleratorError("operand wider than the multiplier datapath")
        if not is_valid_bcd(multiplicand):
            raise AcceleratorError("invalid BCD nibble in multiplicand")
        if not is_valid_bcd(multiplier):
            raise AcceleratorError("invalid BCD nibble in multiplier")
        x = bcd_to_int(multiplicand)
        # Multiple generation: MM[i] = MM[i-1] + X, eight additions (2..9).
        multiples = [0, x]
        for i in range(2, 10):
            multiples.append(multiples[i - 1] + x)
        # Horner accumulation over the multiplier digits, MSD first.
        accumulator = 0
        for digit_index in reversed(range(self.operand_digits)):
            digit = (multiplier >> (4 * digit_index)) & 0xF
            accumulator = accumulator * 10 + multiples[digit]
        return BcdMultiplyResult(
            value=int_to_bcd(accumulator, 2 * self.operand_digits), cycles=self.cycles
        )

    def cost(self) -> AreaReport:
        """Hardware overhead of the full multiplier."""
        report = AreaReport()
        report.add(self.adder.cost())
        report.add(
            register_cost(
                f"multiple registers (10 x {self.operand_digits + 1} digits)",
                10 * 4 * (self.operand_digits + 1),
            )
        )
        report.add(
            register_cost(
                f"product accumulator ({2 * self.operand_digits} digits)",
                4 * 2 * self.operand_digits,
            )
        )
        report.add(GateCost("multiplier control FSM", 220.0, 4, flip_flops=12))
        return report
