"""BCD carry-lookahead adder model (the accelerator's main execution unit).

Method-1 of the paper needs exactly one BCD-CLA "to generate multiplicand
multiples and accumulate partial products".  This class models it:

* *functionally* — word-parallel BCD addition with carry in/out, the
  six-correction the software kernels emit too (``kernels/addsub_fma.py``):
  one binary add of ``a + b + carry_in + 0x66…6`` lets every digit whose sum
  reached 10 carry out, then 6 is taken back from every digit that did not
  (the carry network only changes delay, not values, so one wide add is
  exact);
* *for timing* — a combinational latency in clock cycles (1 by default, the
  adder fits in a pipeline stage at Rocket-class frequencies);
* *for cost* — gate-equivalent area and logic depth estimates of a
  carry-lookahead implementation, which feed the hardware-overhead report.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.errors import AcceleratorError
from repro.hw.cost import GE_PER_AND_OR, GE_PER_XOR, GateCost

#: Gate-equivalents of one BCD digit adder cell (4-bit binary adder, the
#: +6 correction stage and the digit generate/propagate logic).
_DIGIT_CELL_GE = 42.0
#: Gate-equivalents per digit of the lookahead carry network.
_LOOKAHEAD_GE_PER_DIGIT = 9.0


class BcdAddResult(NamedTuple):
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
        bits = 4 * width_digits
        self._bits = bits
        self._mask = (1 << bits) - 1
        ones = self._mask // 15                 # 0x11…1, one bit per digit
        self._sixes = 6 * ones                  # 0x66…6
        #: Bit 4(i+1) of a sum's carry vector is the carry out of digit i.
        self._digit_carries = ones << 4

    # ------------------------------------------------------------------ value
    def add(self, a: int, b: int, carry_in: int = 0) -> BcdAddResult:
        """Add two packed-BCD operands (must fit the adder width)."""
        bits = self._bits
        if (a | b) >> bits:  # also catches a negative operand
            raise AcceleratorError(
                f"operand wider than the {self.width_digits}-digit adder"
            )
        sixes = self._sixes
        digit_carries = self._digit_carries
        # A nibble is above 9 exactly when adding 6 carries out of it; the
        # lowest bad nibble always carries and nothing below it does.
        bad = ((a + sixes) ^ a ^ sixes | (b + sixes) ^ b ^ sixes) & digit_carries
        if bad:
            digit = (bad & -bad).bit_length() // 4 - 1
            raise AcceleratorError(f"invalid BCD nibble in operand at digit {digit}")
        biased = a + sixes
        addend = b + 1 if carry_in else b  # b's low digit <= 9: no nibble carry
        total = biased + addend
        carried = (biased ^ addend ^ total) & digit_carries
        total -= ((carried ^ digit_carries) >> 4) * 6
        return BcdAddResult(total & self._mask, total >> bits, self.width_digits)

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
