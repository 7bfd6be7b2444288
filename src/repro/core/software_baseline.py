"""Host-level software baseline: the decNumber stand-in library itself.

For the Table V "real implementation" comparison the paper times the IBM
decNumber C library on the host.  Our equivalent follows the *library's*
algorithm — decNumber never multiplies wide integers; it keeps coefficients as
arrays of 3-digit units (``DECDPUN=3``) and runs a unit-by-unit schoolbook
loop with carry normalisation — including the interchange-format decode/encode
on every call (as ``decDoubleMultiply`` does).  Only the speedup ratio against
the Method-1 host model is meaningful, never the absolute time.
"""

from __future__ import annotations

from repro.decnumber.arith import finalize, multiply
from repro.decnumber.context import Context
from repro.decnumber.formats import DECIMAL64
from repro.decnumber.number import DecNumber

_UNITS = 6          # 16 digits -> six 3-digit units (DECDPUN = 3)
_ACC_UNITS = 12


class SoftwareBaseline:
    """Software-only decimal64 multiplication, decNumber-style."""

    name = "software"

    def __init__(self) -> None:
        self._context_template = DECIMAL64.context()

    def _context(self) -> Context:
        return Context(
            prec=self._context_template.prec,
            emax=self._context_template.emax,
            emin=self._context_template.emin,
        )

    def multiply(self, x: DecNumber, y: DecNumber) -> DecNumber:
        """Reference-context multiplication (used by tests and examples)."""
        return multiply(x, y, self._context())

    def multiply_words(self, x_word: int, y_word: int) -> int:
        """Full library path: unpack, unit-wise multiply, round, repack."""
        x = DECIMAL64.decode(x_word)
        y = DECIMAL64.decode(y_word)
        if x.is_special or y.is_special or x.coefficient == 0 or y.coefficient == 0:
            return DECIMAL64.encode(self.multiply(x, y))

        # decNumber-style coefficient multiplication on 3-digit units.
        x_units = [(x.coefficient // 1000 ** k) % 1000 for k in range(_UNITS)]
        y_units = [(y.coefficient // 1000 ** k) % 1000 for k in range(_UNITS)]
        accumulator = [0] * _ACC_UNITS
        for j in range(_UNITS):
            yu = y_units[j]
            for i in range(_UNITS):
                accumulator[i + j] += x_units[i] * yu
        carry = 0
        for k in range(_ACC_UNITS):
            total = accumulator[k] + carry
            carry, accumulator[k] = divmod(total, 1000)
        coefficient = 0
        for unit in reversed(accumulator):
            coefficient = coefficient * 1000 + unit

        ctx = self._context()
        result = finalize(x.sign ^ y.sign, coefficient, x.exponent + y.exponent, ctx)
        return DECIMAL64.encode(result, ctx.copy())
