"""Binary to BCD converter (the DEC_CNV instruction's execution unit).

Models the classic shift-and-add-3 ("double dabble") converter: functionally
exact, with a cycle count of one per input bit (the usual iterative hardware
implementation) and a gate cost proportional to the number of output digits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AcceleratorError
from repro.decnumber.bcd import int_to_bcd
from repro.hw.cost import GateCost, register_cost, AreaReport


@dataclass(frozen=True)
class ConversionResult:
    """Outcome of one binary-to-BCD conversion."""

    value: int    # packed BCD
    cycles: int   # iterative converter cycles (one per input bit)


class BinaryToBcdConverter:
    """Iterative double-dabble converter for ``input_bits``-wide integers."""

    def __init__(self, input_bits: int = 64, output_digits: int = 20) -> None:
        self.input_bits = input_bits
        self.output_digits = output_digits

    def convert(self, value: int) -> ConversionResult:
        """Convert an unsigned binary integer to packed BCD."""
        if value < 0 or value >= (1 << self.input_bits):
            raise AcceleratorError(
                f"value does not fit in {self.input_bits} input bits"
            )
        if value > 10 ** self.output_digits - 1:
            raise AcceleratorError(
                f"value needs more than {self.output_digits} BCD digits"
            )
        return ConversionResult(
            value=int_to_bcd(value, self.output_digits), cycles=self.input_bits
        )

    def cost(self) -> AreaReport:
        """Hardware overhead of the iterative converter."""
        report = AreaReport()
        # One add-3 corrector (4 gates-ish -> ~9 GE) per output digit.
        report.add(
            GateCost(
                f"add-3 correctors ({self.output_digits} digits)",
                9.0 * self.output_digits,
                3,
            )
        )
        report.add(register_cost("shift register", self.input_bits + 4 * self.output_digits))
        report.add(GateCost("converter control", 80.0, 3, flip_flops=7))
        return report
