"""Tests for the decimal library: DPD, BCD, arithmetic, interchange formats."""

import decimal
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.decnumber import (
    Context,
    DECIMAL64_CONTEXT,
    DECIMAL128_CONTEXT,
    DecNumber,
    ROUND_CEILING,
    ROUND_DOWN,
    ROUND_FLOOR,
    ROUND_HALF_EVEN,
    ROUND_HALF_UP,
    ROUND_UP,
    add,
    bcd,
    compare,
    dpd,
    fma,
    multiply,
    subtract,
)
from repro.decnumber.arith import absolute, finalize, minus, round_coefficient
from repro.decnumber.formats import DECIMAL64, DECIMAL128
from repro.errors import ConfigurationError, DecimalError


# ---------------------------------------------------------------------------
# DPD codec
# ---------------------------------------------------------------------------
class TestDpd:
    def test_roundtrip_all_values(self):
        for value in range(1000):
            assert dpd.decode_declet(dpd.encode_declet(value)) == value

    def test_small_digits_identity_packing(self):
        # Three small digits keep their BCD bits in place: 0b0010101110 = 2,5,6.
        assert dpd.encode_declet(256) == 0b0101010110

    def test_all_declets_decode(self):
        values = {dpd.decode_declet(declet) for declet in range(1024)}
        assert values == set(range(1000))

    def test_non_canonical_declets_alias(self):
        canonical = set(dpd.DIGITS_TO_DECLET)
        non_canonical = [declet for declet in range(1024) if declet not in canonical]
        assert len(non_canonical) == 24
        for declet in non_canonical:
            assert dpd.decode_declet(declet) in range(1000)

    def test_coefficient_field_roundtrip(self):
        value = 123456789012345
        field = dpd.encode_coefficient(value, 15)
        assert dpd.decode_coefficient(field, 15) == value

    def test_coefficient_field_rejects_overflow(self):
        with pytest.raises(DecimalError):
            dpd.encode_coefficient(10 ** 16, 15)
        with pytest.raises(DecimalError):
            dpd.encode_coefficient(1, 4)

    def test_lookup_tables_consistent(self):
        bcd_table = dpd.declet_table_bcd()
        reverse = dpd.bcd_to_declet_table()
        assert len(bcd_table) == 1024 and len(reverse) == 4096
        for value in range(0, 1000, 7):
            declet = dpd.encode_declet(value)
            packed = bcd_table[declet]
            assert reverse[packed] == declet

    @given(st.integers(0, 999))
    def test_encode_decode_property(self, value):
        assert dpd.decode_declet(dpd.encode_declet(value)) == value


# ---------------------------------------------------------------------------
# BCD helpers
# ---------------------------------------------------------------------------
class TestBcd:
    @given(st.integers(0, 10 ** 18))
    def test_roundtrip(self, value):
        assert bcd.bcd_to_int(bcd.int_to_bcd(value)) == value

    def test_invalid_nibble_rejected(self):
        with pytest.raises(DecimalError):
            bcd.bcd_to_int(0xA)
        assert not bcd.is_valid_bcd(0x1B)
        assert bcd.is_valid_bcd(0x1234567890)

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=70),
           st.integers(0, 69), st.integers(0, 15), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_is_valid_bcd_matches_a_nibble_loop(self, nibbles, position,
                                                nibble, negate):
        """The word-parallel +6 test against a per-nibble reference."""
        nibbles[position % len(nibbles)] = nibble
        value = sum(n << (4 * i) for i, n in enumerate(nibbles))
        expected = all(n <= 9 for n in nibbles)
        if negate:
            value, expected = -value - 1, False
        assert bcd.is_valid_bcd(value) == expected

    def test_digit_helpers(self):
        packed = bcd.int_to_bcd(907)
        assert bcd.bcd_digits(packed, 4) == (7, 0, 9, 0)
        assert bcd.digits_to_bcd((7, 0, 9)) == packed
        assert bcd.bcd_digit_count(packed) == 3
        assert bcd.bcd_digit_count(0) == 1

    def test_shifts(self):
        packed = bcd.int_to_bcd(45)
        assert bcd.bcd_to_int(bcd.bcd_shift_left(packed, 2)) == 4500
        assert bcd.bcd_to_int(bcd.bcd_shift_right(packed, 1)) == 4

    @given(st.integers(0, 10 ** 15), st.integers(0, 10 ** 15))
    def test_bcd_add_reference(self, a, b):
        result = bcd.bcd_add(bcd.int_to_bcd(a), bcd.int_to_bcd(b))
        assert bcd.bcd_to_int(result) == a + b


# ---------------------------------------------------------------------------
# DecNumber value type
# ---------------------------------------------------------------------------
class TestDecNumber:
    @pytest.mark.parametrize("text,sign,coeff,exp", [
        ("123", 0, 123, 0),
        ("-12.50", 1, 1250, -2),
        ("+0.001e5", 0, 1, 2),
        (".5", 0, 5, -1),
        ("7E-3", 0, 7, -3),
    ])
    def test_from_string_finite(self, text, sign, coeff, exp):
        number = DecNumber.from_string(text)
        assert (number.sign, number.coefficient, number.exponent) == (sign, coeff, exp)

    def test_from_string_specials(self):
        assert DecNumber.from_string("Infinity").is_infinite
        assert DecNumber.from_string("-inf").sign == 1
        assert DecNumber.from_string("NaN123").coefficient == 123
        assert DecNumber.from_string("sNaN").is_snan

    def test_from_string_rejects_garbage(self):
        with pytest.raises(DecimalError):
            DecNumber.from_string("twelve")

    def test_decimal_roundtrip(self):
        number = DecNumber(1, 123456, -3)
        assert DecNumber.from_decimal(number.to_decimal()) == number

    def test_predicates_and_adjusted(self):
        number = DecNumber(0, 12345, -2)
        assert number.digits == 5
        assert number.adjusted_exponent == 2
        assert DecNumber.zero().is_zero
        assert DecNumber.infinity(1).is_special

    def test_numeric_equality_vs_structural(self):
        a = DecNumber(0, 10, 0)
        b = DecNumber(0, 1, 1)
        assert a != b
        assert a.numerically_equal(b)
        assert not DecNumber.qnan().numerically_equal(DecNumber.qnan())

    def test_invalid_construction(self):
        with pytest.raises(DecimalError):
            DecNumber(2, 0, 0)
        with pytest.raises(DecimalError):
            DecNumber(0, -1, 0)
        with pytest.raises(DecimalError):
            DecNumber(0, 0, 0, "bogus")


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------
class TestContext:
    def test_derived_exponents(self):
        ctx = DECIMAL64_CONTEXT()
        assert ctx.etiny == -398 and ctx.etop == 369

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Context(prec=0)
        with pytest.raises(ConfigurationError):
            Context(rounding="sideways")

    def test_flags_lifecycle(self):
        ctx = DECIMAL64_CONTEXT()
        multiply(DecNumber(0, 10 ** 16 - 1, 300), DecNumber(0, 10 ** 16 - 1, 300), ctx)
        assert "overflow" in ctx.flags.raised()
        ctx.flags.clear()
        assert ctx.flags.raised() == frozenset()

    def test_copy_gets_fresh_flags(self):
        ctx = DECIMAL64_CONTEXT()
        ctx.flags.inexact = True
        assert not ctx.copy().flags.inexact


# ---------------------------------------------------------------------------
# Arithmetic vs the Python decimal module (same specification)
# ---------------------------------------------------------------------------
def _random_operand(rng, exp_range=(-250, 250)):
    return DecNumber(
        rng.randint(0, 1),
        rng.randint(0, 10 ** 16 - 1),
        rng.randint(*exp_range),
    )


class TestArithmeticAgainstPythonDecimal:
    @pytest.mark.parametrize("rounding", [
        ROUND_HALF_EVEN, ROUND_HALF_UP, ROUND_DOWN, ROUND_UP,
        ROUND_CEILING, ROUND_FLOOR,
    ])
    def test_multiply_matches_python_decimal(self, rounding):
        rng = random.Random(hash(rounding) & 0xFFFF)
        ctx_proto = Context(prec=16, emax=384, emin=-383, rounding=rounding)
        pyctx = ctx_proto.to_python_context()
        for _ in range(300):
            x = _random_operand(rng)
            y = _random_operand(rng)
            ctx = ctx_proto.copy()
            ours = multiply(x, y, ctx)
            theirs = pyctx.multiply(x.to_decimal(), y.to_decimal())
            assert str(ours.to_decimal()) == str(theirs), (x, y, rounding)

    def test_subnormal_region_matches(self):
        rng = random.Random(99)
        pyctx = DECIMAL64_CONTEXT().to_python_context()
        for _ in range(400):
            x = _random_operand(rng, (-398, -150))
            y = _random_operand(rng, (-398, -150))
            ctx = DECIMAL64_CONTEXT()
            ours = multiply(x, y, ctx)
            theirs = pyctx.multiply(x.to_decimal(), y.to_decimal())
            assert str(ours.to_decimal()) == str(theirs)

    def test_add_and_subtract_match(self):
        rng = random.Random(7)
        pyctx = DECIMAL64_CONTEXT().to_python_context()
        for _ in range(300):
            x = _random_operand(rng)
            y = _random_operand(rng)
            assert str(add(x, y, DECIMAL64_CONTEXT()).to_decimal()) == str(
                pyctx.add(x.to_decimal(), y.to_decimal())
            )
            assert str(subtract(x, y, DECIMAL64_CONTEXT()).to_decimal()) == str(
                pyctx.subtract(x.to_decimal(), y.to_decimal())
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 1), st.integers(0, 10 ** 16 - 1), st.integers(-398, 369),
        st.integers(0, 1), st.integers(0, 10 ** 16 - 1), st.integers(-398, 369),
    )
    def test_multiply_property(self, xs, xc, xe, ys, yc, ye):
        x, y = DecNumber(xs, xc, xe), DecNumber(ys, yc, ye)
        ctx = DECIMAL64_CONTEXT()
        ours = multiply(x, y, ctx)
        theirs = DECIMAL64_CONTEXT().to_python_context().multiply(
            x.to_decimal(), y.to_decimal()
        )
        assert str(ours.to_decimal()) == str(theirs)


class TestAddSubFmaEdges:
    """Direct edge coverage for add/subtract/fma special paths.

    These cases were previously exercised only indirectly (through the
    kernel oracles); each one cross-checks against stdlib decimal with the
    same context settings.
    """

    def test_exact_cancellation_zero_sign_round_floor(self):
        x = DecNumber(0, 123456, -3)
        for rounding in (ROUND_FLOOR, ROUND_HALF_EVEN, ROUND_CEILING):
            ctx = Context(prec=16, emax=384, emin=-383, rounding=rounding)
            ours = subtract(x, x, ctx)
            theirs = ctx.to_python_context().subtract(
                x.to_decimal(), x.to_decimal()
            )
            assert str(ours.to_decimal()) == str(theirs), rounding
            # Only ROUND_FLOOR directs an exact-cancellation zero negative.
            assert (ours.sign == 1) == (rounding == ROUND_FLOOR)

    def test_both_zero_sum_sign(self):
        pos, neg = DecNumber.zero(0), DecNumber.zero(1)
        for rounding in (ROUND_FLOOR, ROUND_HALF_EVEN):
            for x, y in ((pos, neg), (neg, pos), (neg, neg), (pos, pos)):
                ctx = Context(prec=16, emax=384, emin=-383, rounding=rounding)
                ours = add(x, y, ctx)
                theirs = ctx.to_python_context().add(
                    x.to_decimal(), y.to_decimal()
                )
                assert str(ours.to_decimal()) == str(theirs), (x, y, rounding)

    def test_inf_minus_inf_invalid_qnan(self):
        ctx = DECIMAL64_CONTEXT()
        inf = DecNumber.infinity(0)
        result = subtract(inf, inf, ctx)
        assert result.kind == "qnan" and result.coefficient == 0
        assert ctx.flags.invalid
        pyctx = DECIMAL64_CONTEXT().to_python_context()
        theirs = pyctx.subtract(inf.to_decimal(), inf.to_decimal())
        assert str(result.to_decimal()) == str(theirs)
        assert pyctx.flags[decimal.InvalidOperation]
        # Same-sign infinities subtract to the invalid case through the
        # copy_negate path; opposite signs stay a clean infinity.
        ctx = DECIMAL64_CONTEXT()
        ok = subtract(inf, DecNumber.infinity(1), ctx)
        assert ok.is_infinite and ok.sign == 0 and not ctx.flags.invalid

    def test_nan_payload_through_subtract(self):
        # A quiet-NaN y must keep its payload AND its sign: subtract's
        # copy_negate shortcut may not flip the NaN before propagation.
        ctx = DECIMAL64_CONTEXT()
        nan = DecNumber.qnan(123, sign=1)
        x = DecNumber(0, 5, 0)
        result = subtract(x, nan, ctx)
        assert result.kind == "qnan"
        assert result.coefficient == 123 and result.sign == 1
        assert not ctx.flags.invalid
        pyctx = DECIMAL64_CONTEXT().to_python_context()
        theirs = pyctx.subtract(x.to_decimal(), nan.to_decimal())
        assert str(result.to_decimal()) == str(theirs)

    def test_snan_through_subtract_signals_and_quiets(self):
        ctx = DECIMAL64_CONTEXT()
        result = subtract(DecNumber.from_int(1), DecNumber.snan(77), ctx)
        assert result.kind == "qnan" and result.coefficient == 77
        assert ctx.flags.invalid

    def test_fma_inf_times_zero_invalid_before_z(self):
        # Inf * 0 raises invalid before z is examined, matching stdlib fma.
        ctx = DECIMAL64_CONTEXT()
        result = fma(DecNumber.infinity(0), DecNumber.zero(), DecNumber.snan(9), ctx)
        assert result.kind == "qnan" and result.coefficient == 0
        assert ctx.flags.invalid
        pyctx = DECIMAL64_CONTEXT().to_python_context()
        theirs = pyctx.fma(
            decimal.Decimal("Infinity"), decimal.Decimal(0), decimal.Decimal("sNaN9")
        )
        assert str(result.to_decimal()) == str(theirs)

    def test_fma_single_rounding(self):
        # 1 + ulp^2/... : the product must NOT be rounded before the add.
        ctx = DECIMAL64_CONTEXT()
        x = DecNumber(0, 10 ** 16 - 1, -16)   # just under 1
        ours = fma(x, x, DecNumber(1, 1, -32), ctx)
        pyctx = DECIMAL64_CONTEXT().to_python_context()
        theirs = pyctx.fma(
            x.to_decimal(), x.to_decimal(), decimal.Decimal("-1E-32")
        )
        assert str(ours.to_decimal()) == str(theirs)


class TestSpecialsAndMisc:
    def test_nan_propagation(self):
        ctx = DECIMAL64_CONTEXT()
        result = multiply(DecNumber.snan(5), DecNumber.from_int(2), ctx)
        assert result.kind == "qnan" and result.coefficient == 5
        assert ctx.flags.invalid

    def test_inf_times_zero_is_invalid(self):
        ctx = DECIMAL64_CONTEXT()
        result = multiply(DecNumber.infinity(), DecNumber.zero(), ctx)
        assert result.is_nan and ctx.flags.invalid

    def test_inf_plus_minus_inf_invalid(self):
        ctx = DECIMAL64_CONTEXT()
        assert add(DecNumber.infinity(0), DecNumber.infinity(1), ctx).is_nan

    def test_compare(self):
        ctx = DECIMAL64_CONTEXT()
        assert compare(DecNumber.from_int(2), DecNumber.from_int(3), ctx) == -1
        assert compare(DecNumber(0, 10, -1), DecNumber.from_int(1), ctx) == 0
        assert compare(DecNumber.infinity(1), DecNumber.from_int(0), ctx) == -1
        assert compare(DecNumber.qnan(), DecNumber.from_int(0), ctx) is None

    @pytest.mark.parametrize("x,y,expected", [
        # ±Inf vs ±Inf.
        (DecNumber.infinity(0), DecNumber.infinity(0), 0),
        (DecNumber.infinity(1), DecNumber.infinity(1), 0),
        (DecNumber.infinity(1), DecNumber.infinity(0), -1),
        (DecNumber.infinity(0), DecNumber.infinity(1), 1),
        # ±Inf vs finite: the infinity dominates regardless of magnitude.
        (DecNumber.infinity(0), DecNumber.from_int(10**15), 1),
        (DecNumber.infinity(1), DecNumber.from_int(-(10**15)), -1),
        (DecNumber.infinity(0), DecNumber.zero(), 1),
        (DecNumber.infinity(1), DecNumber.zero(), -1),
        # finite vs ±Inf (mirrored operand order).
        (DecNumber.from_int(10**15), DecNumber.infinity(0), -1),
        (DecNumber.from_int(-(10**15)), DecNumber.infinity(1), 1),
        (DecNumber.zero(1), DecNumber.infinity(0), -1),
        (DecNumber.zero(), DecNumber.infinity(1), 1),
    ])
    def test_compare_infinity_orderings(self, x, y, expected):
        ctx = DECIMAL64_CONTEXT()
        assert compare(x, y, ctx) == expected
        assert not ctx.flags.invalid  # infinities are ordered, not invalid

    def test_minus_and_absolute(self):
        ctx = DECIMAL64_CONTEXT()
        assert minus(DecNumber.from_int(5), ctx).sign == 1
        assert absolute(DecNumber.from_int(-5), ctx).sign == 0

    def test_round_coefficient_modes(self):
        assert round_coefficient(1251, 2, 0, ROUND_HALF_EVEN) == (13, True)
        assert round_coefficient(1250, 2, 0, ROUND_HALF_EVEN) == (12, True)
        assert round_coefficient(1350, 2, 0, ROUND_HALF_EVEN) == (14, True)
        assert round_coefficient(1250, 2, 0, ROUND_HALF_UP) == (13, True)
        assert round_coefficient(1999, 3, 1, ROUND_FLOOR) == (2, True)
        assert round_coefficient(1200, 2, 0, ROUND_DOWN) == (12, False)

    def test_finalize_clamp_flag(self):
        ctx = DECIMAL64_CONTEXT()
        result = finalize(0, 5, 380, ctx)
        assert ctx.flags.clamped
        assert result.exponent == ctx.etop


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------
class TestFormats:
    @pytest.mark.parametrize("fmt", [DECIMAL64, DECIMAL128],
                             ids=lambda fmt: fmt.name)
    def test_roundtrip_random(self, fmt):
        rng = random.Random(fmt.precision)
        for _ in range(300):
            number = DecNumber(
                rng.randint(0, 1),
                rng.randint(0, fmt.max_coefficient),
                rng.randint(fmt.etiny, fmt.etop),
            )
            decoded = fmt.decode(fmt.encode(number))
            assert decoded == number or decoded.numerically_equal(number)

    def test_known_encoding_one(self):
        # 1 = +1E+0: biased exponent 398 -> 0b01 10001110, MSD 0, declets 0...01.
        word = DECIMAL64.encode(DecNumber(0, 1, 0))
        assert DECIMAL64.decode(word) == DecNumber(0, 1, 0)
        assert word >> 63 == 0

    def test_specials_roundtrip(self):
        for number in (
            DecNumber.infinity(0), DecNumber.infinity(1),
            DecNumber.qnan(42), DecNumber.snan(7, sign=1),
        ):
            decoded = DECIMAL64.decode(DECIMAL64.encode(number))
            assert decoded.kind == number.kind and decoded.sign == number.sign

    def test_components_and_bcd(self):
        word = DECIMAL64.encode(DecNumber(1, 987654321, -5))
        sign, biased, coefficient = DECIMAL64.components(word)
        assert (sign, coefficient) == (1, 987654321)
        assert biased == -5 + DECIMAL64.bias
        assert DECIMAL64.coefficient_bcd(word) == 0x987654321

    def test_components_rejects_specials(self):
        with pytest.raises(DecimalError):
            DECIMAL64.components(DECIMAL64.encode(DecNumber.infinity()))
        assert DECIMAL64.is_special(DECIMAL64.encode(DecNumber.qnan()))

    def test_rounding_on_encode_flags(self):
        ctx = DECIMAL64.context()
        DECIMAL64.encode(DecNumber(0, 10 ** 17 + 1, 0), ctx)
        assert ctx.flags.rounded and ctx.flags.inexact

    def test_decimal128_parameters(self):
        assert DECIMAL128.precision == 34
        assert DECIMAL128.emax == 6144
        assert DECIMAL128.coefficient_continuation_bits == 110

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 1),
        st.integers(0, 10 ** 16 - 1),
        st.integers(-398, 369),
    )
    def test_decimal64_roundtrip_property(self, sign, coefficient, exponent):
        number = DecNumber(sign, coefficient, exponent)
        assert DECIMAL64.decode(DECIMAL64.encode(number)).numerically_equal(number) or (
            coefficient == 0
        )

    def test_decode_matches_python_decimal_packing_independence(self):
        """Our encoding is self-consistent with our golden arithmetic."""
        rng = random.Random(3)
        pyctx = decimal.Context(prec=16, Emax=384, Emin=-383)
        for _ in range(100):
            number = DecNumber(rng.randint(0, 1), rng.randint(0, 10 ** 16 - 1),
                               rng.randint(-398, 369))
            decoded = DECIMAL64.decode(DECIMAL64.encode(number))
            assert decoded.to_decimal() == pyctx.plus(number.to_decimal())
