"""BCD carry-lookahead adder model (the accelerator's main execution unit).

Method-1 of the paper needs exactly one BCD-CLA "to generate multiplicand
multiples and accumulate partial products".  This class models it:

* *functionally* — digit-serial BCD addition with carry in/out (the carry
  network only changes delay, not values, so the functional model is simple);
* *for timing* — a combinational latency in clock cycles (1 by default, the
  adder fits in a pipeline stage at Rocket-class frequencies);
* *for cost* — gate-equivalent area and logic depth estimates of a
  carry-lookahead implementation, which feed the hardware-overhead report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import AcceleratorError
from repro.hw.cost import GE_PER_AND_OR, GE_PER_XOR, GateCost

#: Gate-equivalents of one BCD digit adder cell (4-bit binary adder, the
#: +6 correction stage and the digit generate/propagate logic).
_DIGIT_CELL_GE = 42.0
#: Gate-equivalents per digit of the lookahead carry network.
_LOOKAHEAD_GE_PER_DIGIT = 9.0


@dataclass(frozen=True)
class BcdAddResult:
    """Outcome of one BCD addition."""

    value: int       # packed BCD sum, truncated to the adder width
    carry_out: int   # 1 if the sum exceeded the adder width
    digits: int      # adder width in digits


class BcdCarryLookaheadAdder:
    """A ``width_digits``-digit BCD carry-lookahead adder."""

    def __init__(self, width_digits: int = 16, latency_cycles: int = 1) -> None:
        if width_digits < 1:
            raise AcceleratorError("adder width must be at least one digit")
        self.width_digits = width_digits
        self.latency_cycles = latency_cycles

    # ------------------------------------------------------------------ value
    def add(self, a: int, b: int, carry_in: int = 0) -> BcdAddResult:
        """Add two packed-BCD operands (must fit the adder width)."""
        mask = (1 << (4 * self.width_digits)) - 1
        if a & ~mask or b & ~mask:
            raise AcceleratorError(
                f"operand wider than the {self.width_digits}-digit adder"
            )
        carry = 1 if carry_in else 0
        result = 0
        for digit_index in range(self.width_digits):
            da = (a >> (4 * digit_index)) & 0xF
            db = (b >> (4 * digit_index)) & 0xF
            if da > 9 or db > 9:
                raise AcceleratorError(
                    f"invalid BCD nibble in operand at digit {digit_index}"
                )
            total = da + db + carry
            if total > 9:
                total -= 10
                carry = 1
            else:
                carry = 0
            result |= total << (4 * digit_index)
        return BcdAddResult(value=result, carry_out=carry, digits=self.width_digits)

    # ------------------------------------------------------------------- cost
    def cost(self) -> GateCost:
        """Gate-equivalent area and depth of a CLA implementation."""
        digit_cells = _DIGIT_CELL_GE * self.width_digits
        lookahead = _LOOKAHEAD_GE_PER_DIGIT * self.width_digits
        # Two-level lookahead tree: depth grows with log4(width).
        levels = 4 + 2 * max(1, math.ceil(math.log(max(self.width_digits, 2), 4)))
        extra = (GE_PER_XOR + GE_PER_AND_OR) * self.width_digits  # sum correction
        return GateCost(
            name=f"BCD-CLA ({self.width_digits} digits)",
            gate_equivalents=digit_cells + lookahead + extra,
            logic_levels=levels,
        )
