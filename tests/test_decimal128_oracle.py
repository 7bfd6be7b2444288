"""Property-based dual-oracle tests for decimal128: decnumber vs stdlib.

The decimal128 mirror of ``tests/test_differential_oracle.py``: thousands of
seeded operand pairs — plus directed NaN-payload, signed-zero and subnormal
edges — must produce bit-identical results from our decNumber port and from
Python's independently implemented stdlib :mod:`decimal` module, both under
the decimal128 context (34 digits, emax 6144, clamp).  Any disagreement in a
differential campaign is then a real finding, not oracle noise.
"""

from __future__ import annotations

import random

import pytest

from repro.decnumber.formats import DECIMAL128
from repro.decnumber.arith import multiply
from repro.decnumber.number import DecNumber
from repro.verification.database import OperandClass, VerificationDatabase
from repro.verification.differential import (
    DualOracleChecker,
    StdlibDecimalReference,
)
from repro.verification.reference import GoldenReference

ETINY = DECIMAL128.etiny          # -6176
ETOP = DECIMAL128.etop            # 6111
PRECISION = DECIMAL128.precision  # 34


def _stdlib_multiply(x: DecNumber, y: DecNumber) -> DecNumber:
    ctx = DECIMAL128.context().to_python_context()
    return DecNumber.from_decimal(ctx.multiply(x.to_decimal(), y.to_decimal()))


def _decnumber_multiply(x: DecNumber, y: DecNumber) -> DecNumber:
    return multiply(x, y, DECIMAL128.context())


def _assert_same(x: DecNumber, y: DecNumber) -> None:
    ours = _decnumber_multiply(x, y)
    theirs = _stdlib_multiply(x, y)
    assert (ours.kind, ours.sign, ours.coefficient, ours.exponent) == (
        theirs.kind,
        theirs.sign,
        theirs.coefficient,
        theirs.exponent,
    ), f"{x} * {y}: decnumber {ours!r} != stdlib {theirs!r}"


# ---------------------------------------------------------------- seeded sweep
def test_seeded_sweep_all_classes_matches_stdlib_decimal128():
    """>=5k constrained-random decimal128 pairs across every class agree."""
    database = VerificationDatabase(seed=20260728, fmt="decimal128")
    vectors = database.generate_mix(5120, OperandClass.ALL)
    assert len(vectors) >= 5000
    for vector in vectors:
        _assert_same(vector.x, vector.y)


def test_random_wide_sweep_matches_stdlib_decimal128():
    """Unconstrained random finite pairs over the full decimal128 envelope."""
    rng = random.Random(971)
    for _ in range(1500):
        x = DecNumber(
            rng.randint(0, 1),
            rng.randint(0, 10 ** rng.randint(1, PRECISION) - 1),
            rng.randint(ETINY, ETOP),
        )
        y = DecNumber(
            rng.randint(0, 1),
            rng.randint(0, 10 ** rng.randint(1, PRECISION) - 1),
            rng.randint(ETINY, ETOP),
        )
        _assert_same(x, y)


# -------------------------------------------------------------- directed edges
@pytest.mark.parametrize("payload", [0, 1, 999, 999_999, 10 ** 33 - 1])
@pytest.mark.parametrize("sign", [0, 1])
def test_nan_payload_propagation_matches(payload, sign):
    finite = DecNumber(0, 5, 0)
    for nan in (DecNumber.qnan(payload, sign), DecNumber.snan(payload, sign)):
        _assert_same(nan, finite)
        _assert_same(finite, nan)
        _assert_same(nan, DecNumber.qnan(7, 1 - sign))


def test_signed_zero_products_match():
    for sx in (0, 1):
        for sy in (0, 1):
            _assert_same(DecNumber(sx, 0, 10), DecNumber(sy, 123, -5))
            _assert_same(DecNumber(sx, 0, ETINY), DecNumber(sy, 0, ETOP))
            _assert_same(DecNumber(sx, 0, 0), DecNumber.infinity(sy))


def test_subnormal_edges_match():
    cases = [
        (DecNumber(0, 1, ETINY), DecNumber(0, 1, 0)),       # smallest subnormal
        (DecNumber(0, 1, -3088), DecNumber(0, 1, -3088)),   # etiny product
        (DecNumber(0, 5, -3100), DecNumber(0, 1, -3099)),   # below etiny
        (DecNumber(0, 10 ** 33, ETINY), DecNumber(0, 1, 0)),
        (DecNumber(1, 10 ** PRECISION - 1, -6143), DecNumber(0, 1, -33)),
        (DecNumber(0, 3, ETINY), DecNumber(1, 1, -1)),      # rounds to zero
    ]
    for x, y in cases:
        _assert_same(x, y)


def test_overflow_and_clamp_edges_match():
    nines = 10 ** PRECISION - 1
    cases = [
        (DecNumber(0, nines, ETOP), DecNumber(0, 1, 0)),
        (DecNumber(0, 10 ** 17, 3100), DecNumber(0, 10 ** 17, 3011)),
        (DecNumber(0, 1, ETOP), DecNumber(0, 1, 5)),        # fold-down clamp
        (DecNumber(1, 123, 6112), DecNumber(0, 45, 5)),
    ]
    for x, y in cases:
        _assert_same(x, y)


def test_rounding_ties_match():
    """Products ending in exactly ...5 with even/odd quotient digits."""
    base = 10 ** 33
    cases = [
        (DecNumber(0, base + 5, 0), DecNumber(0, 10 ** 31, 0)),
        (DecNumber(0, base + 15, 0), DecNumber(0, 10 ** 31, 0)),
        (DecNumber(0, 10 ** PRECISION - 1, 0), DecNumber(0, 10 ** PRECISION - 1, 0)),
    ]
    for x, y in cases:
        _assert_same(x, y)


# ---------------------------------------------------- format-scoped references
def test_stdlib_reference_picks_decimal128_context():
    reference = StdlibDecimalReference(precision="decimal128")
    ctx = reference.context()
    assert (ctx.prec, ctx.Emax, ctx.Emin) == (34, 6144, -6143)
    golden = GoldenReference(precision="quad")
    database = VerificationDatabase(seed=5, fmt="decimal128")
    for vector in database.generate_mix(250, OperandClass.ALL):
        second = reference.compute(vector.x, vector.y)
        primary = golden.compute(vector.x, vector.y)
        assert second.encoded == primary.encoded
    overflowed = reference.compute(
        DecNumber(0, 10 ** PRECISION - 1, ETOP), DecNumber(0, 9, 0)
    )
    assert "overflow" in overflowed.flags
    assert overflowed.value.is_infinite
    tiny = reference.compute(DecNumber(0, 1, ETINY), DecNumber(0, 1, -1))
    assert "underflow" in tiny.flags


def test_dual_checker_under_decimal128_passes_on_correct_words():
    vectors = VerificationDatabase(seed=17, fmt="decimal128").generate_mix(32)
    golden = GoldenReference(precision="decimal128")
    words = [golden.compute(v.x, v.y).encoded for v in vectors]
    report = DualOracleChecker(fmt="decimal128").check_run(vectors, words)
    assert report.all_passed
    assert not report.oracle_disagreements
    # A flipped bit is a kernel check failure, not an oracle split.
    words[3] ^= 1 << 100
    report = DualOracleChecker(fmt="decimal128").check_run(vectors, words)
    assert report.failed == 1
    assert not report.oracle_disagreements
