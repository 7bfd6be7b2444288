"""Binary-coded decimal helpers.

The Method-1 datapath (paper Section II) works on BCD-8421 words: each decimal
digit occupies one nibble.  These helpers convert between Python integers,
digit tuples and packed-BCD integers and are shared by the decimal library,
the accelerator model and the verification checker.
"""

from __future__ import annotations

from repro.errors import DecimalError


def int_to_bcd(value: int, digits: int = None) -> int:
    """Pack a non-negative integer into BCD (one nibble per digit).

    ``digits`` pads/limits the width; omitted means "just enough nibbles".
    """
    if value < 0:
        raise DecimalError("BCD encoding requires a non-negative value")
    result = 0
    shift = 0
    remaining = value
    count = 0
    while remaining or count == 0:
        result |= (remaining % 10) << shift
        remaining //= 10
        shift += 4
        count += 1
    if digits is not None:
        if count > digits:
            raise DecimalError(f"value {value} does not fit in {digits} BCD digits")
    return result


def bcd_to_int(bcd: int) -> int:
    """Unpack a packed-BCD integer into its numeric value.

    Raises :class:`DecimalError` if any nibble is not a decimal digit.
    """
    if bcd < 0:
        raise DecimalError("packed BCD must be non-negative")
    value = 0
    scale = 1
    remaining = bcd
    while remaining:
        nibble = remaining & 0xF
        if nibble > 9:
            raise DecimalError(f"invalid BCD nibble: {nibble:#x}")
        value += nibble * scale
        scale *= 10
        remaining >>= 4
    return value


def is_valid_bcd(bcd: int) -> bool:
    """Return True when every nibble of ``bcd`` is a decimal digit.

    Word-parallel: a nibble is above 9 exactly when adding 6 carries out of
    it, so one binary add of 0x66…6 tests every nibble at once — no nibble
    carries out exactly when all of them are decimal digits.
    """
    if bcd < 0:
        return False
    nibbles = (bcd.bit_length() + 3) >> 2
    ones = ((1 << (4 * nibbles)) - 1) // 15  # 0x11…1, one bit per nibble
    sixes = 6 * ones
    return not ((bcd + sixes) ^ bcd ^ sixes) & (ones << 4)


def bcd_digits(bcd: int, count: int) -> tuple:
    """Return ``count`` digits of a packed BCD value, least significant first."""
    return tuple((bcd >> (4 * i)) & 0xF for i in range(count))


def digits_to_bcd(digits) -> int:
    """Pack an iterable of digits (least significant first) into BCD."""
    result = 0
    for position, digit in enumerate(digits):
        if not 0 <= digit <= 9:
            raise DecimalError(f"invalid decimal digit: {digit}")
        result |= digit << (4 * position)
    return result


def bcd_digit_count(bcd: int) -> int:
    """Number of significant digits in a packed BCD value (>= 1)."""
    count = 0
    while bcd:
        count += 1
        bcd >>= 4
    return max(count, 1)


def bcd_shift_left(bcd: int, digits: int, width_digits: int = None) -> int:
    """Decimal left shift (multiply by 10**digits) of a packed BCD value."""
    shifted = bcd << (4 * digits)
    if width_digits is not None:
        shifted &= (1 << (4 * width_digits)) - 1
    return shifted


def bcd_shift_right(bcd: int, digits: int) -> int:
    """Decimal right shift (integer divide by 10**digits) of packed BCD."""
    return bcd >> (4 * digits)


def bcd_add(a: int, b: int) -> int:
    """Reference BCD addition (value semantics); used to check the hardware model."""
    return int_to_bcd(bcd_to_int(a) + bcd_to_int(b))
