"""Host-level (pure Python) model of Method-1 decimal multiplication.

This is the same Fig. 1 flow the RISC-V kernel implements, expressed in
Python.  It serves three purposes:

* executable documentation of the algorithm (white = software steps, the
  ``hardware`` object = grey steps);
* the "Method-1 using dummy function" implementation timed on the *host* for
  the Table V reproduction (the paper ran it on an Intel i7 under Windows);
* a cross-check of the RISC-V kernel: with :class:`FunctionalHardware` the
  model produces bit-exact IEEE results, with :class:`DummyHardware` it
  reproduces the estimation methodology (fixed return values, timing only).
"""

from __future__ import annotations

from repro.decnumber.bcd import bcd_to_int, int_to_bcd
from repro.decnumber.formats import DECIMAL64
from repro.decnumber.number import DecNumber

_ETINY = -398
_ETOP = 369
_EMAX = 384
_PRECISION = 16


class FunctionalHardware:
    """Hardware part modelled functionally (what the real accelerator does)."""

    name = "functional"

    def __init__(self) -> None:
        self.multiples = [0] * 10
        self.accumulator = 0
        self.operations = 0

    def clear(self) -> None:
        self.multiples = [0] * 10
        self.accumulator = 0
        self.operations += 1

    def write_multiplicand(self, bcd_value: int) -> None:
        self.multiples[1] = bcd_value
        self.operations += 1

    def generate_multiple(self, index: int) -> None:
        """MM[index+1] = MM[index] + MM[1] (one BCD-CLA addition)."""
        self.multiples[index + 1] = int_to_bcd(
            bcd_to_int(self.multiples[index]) + bcd_to_int(self.multiples[1])
        )
        self.operations += 1

    def accumulate_digit(self, digit: int) -> None:
        """accumulator = accumulator * 10 + MM[digit]."""
        self.accumulator = self.accumulator * 10 + bcd_to_int(self.multiples[digit])
        self.operations += 1

    def read_product(self) -> int:
        """The accumulated coefficient product (as an integer)."""
        self.operations += 1
        return self.accumulator

    def bcd_increment(self, value: int) -> int:
        """value + 1 through the BCD adder."""
        self.operations += 1
        return value + 1


class DummyHardware:
    """The dummy functions of the estimation methodology: fixed return values."""

    name = "dummy"

    def __init__(self) -> None:
        self.operations = 0

    def clear(self) -> None:
        self.operations += 1

    def write_multiplicand(self, bcd_value: int) -> None:
        self.operations += 1

    def generate_multiple(self, index: int) -> None:
        self.operations += 1

    def accumulate_digit(self, digit: int) -> None:
        self.operations += 1

    def read_product(self) -> int:
        self.operations += 1
        return 0x123  # fixed return value

    def bcd_increment(self, value: int) -> int:
        self.operations += 1
        return 1  # fixed return value


class Method1HostModel:
    """Method-1 multiplication with a pluggable hardware part."""

    def __init__(self, hardware=None) -> None:
        self.hardware = hardware if hardware is not None else FunctionalHardware()

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _is_zero(number: DecNumber) -> bool:
        return number.is_finite and number.coefficient == 0

    @staticmethod
    def _encode_zero(sign: int, exponent: int) -> DecNumber:
        exponent = min(max(exponent, _ETINY), _ETOP)
        return DecNumber(sign, 0, exponent)

    # ----------------------------------------------------------------- multiply
    def multiply(self, x: DecNumber, y: DecNumber) -> DecNumber:
        """Multiply two decimal64 values following the Fig. 1 flow."""
        hardware = self.hardware

        # Special values (software).
        if x.is_nan or y.is_nan:
            source = x if x.is_nan else y
            return DecNumber.qnan(source.coefficient, source.sign)
        sign = x.sign ^ y.sign
        if x.is_infinite or y.is_infinite:
            if self._is_zero(x) or self._is_zero(y):
                return DecNumber.qnan()
            return DecNumber.infinity(sign)

        # Sign / exponent (software).
        exponent = x.exponent + y.exponent
        if x.coefficient == 0 or y.coefficient == 0:
            return self._encode_zero(sign, exponent)

        # Convert to BCD (software) and run the hardware part.
        x_bcd = int_to_bcd(x.coefficient, _PRECISION)
        y_digits = [(y.coefficient // 10 ** k) % 10 for k in range(_PRECISION)]
        hardware.clear()
        hardware.write_multiplicand(x_bcd)
        for index in range(1, 9):
            hardware.generate_multiple(index)
        for digit in reversed(y_digits):  # most significant digit first
            hardware.accumulate_digit(digit)
        product = hardware.read_product()

        # Rounding (software), single-shot drop as in the kernels.
        digits = len(str(product)) if product else 1
        drop = max(0, digits - _PRECISION, _ETINY - exponent)
        if drop > 0:
            if drop >= digits:
                # Deep underflow: 0 or 1 ulp.
                coefficient = 1 if drop == digits and product > 5 * 10 ** (digits - 1) else 0
            else:
                quotient, remainder = divmod(product, 10 ** drop)
                half = 5 * 10 ** (drop - 1)
                round_up = remainder > half or (remainder == half and quotient & 1)
                if round_up:
                    quotient = hardware.bcd_increment(quotient)
                    if quotient == 10 ** _PRECISION:
                        quotient //= 10
                        drop += 1
                coefficient = quotient
            exponent += drop
        else:
            coefficient = product

        if coefficient == 0:
            return self._encode_zero(sign, exponent)

        # Overflow / clamp (software).
        adjusted = exponent + len(str(coefficient)) - 1
        if adjusted > _EMAX:
            return DecNumber.infinity(sign)
        if exponent > _ETOP:
            coefficient *= 10 ** (exponent - _ETOP)
            exponent = _ETOP
        return DecNumber(sign, coefficient, exponent)

    def multiply_words(self, x_word: int, y_word: int) -> int:
        """decimal64-bit-pattern convenience wrapper (used by host timing)."""
        result = self.multiply(DECIMAL64.decode(x_word), DECIMAL64.decode(y_word))
        return DECIMAL64.encode(result)
