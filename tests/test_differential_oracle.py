"""Property-based dual-oracle tests: decnumber vs stdlib decimal.

The differential engine's second oracle is Python's stdlib :mod:`decimal`
module, an independent implementation of the same General Decimal Arithmetic
specification as decNumber.  These tests sweep thousands of seeded operand
pairs — plus directed NaN-payload, signed-zero and subnormal edges — and
assert the two oracles produce bit-identical decimal64 results, so any
divergence between them in a fuzz campaign is a real finding, not noise.
"""

from __future__ import annotations

import random

import pytest

from repro.decnumber.formats import DECIMAL64
from repro.decnumber.arith import multiply
from repro.decnumber.number import DecNumber
from repro.errors import VerificationError
from repro.verification.checker import ResultChecker
from repro.verification.database import OperandClass, VerificationDatabase
from repro.verification.differential import (
    DualCheckReport,
    DualOracleChecker,
    OracleDisagreement,
    StdlibDecimalReference,
)
from repro.verification.reference import GoldenReference


def _stdlib_multiply(x: DecNumber, y: DecNumber) -> DecNumber:
    ctx = DECIMAL64.context().to_python_context()
    return DecNumber.from_decimal(ctx.multiply(x.to_decimal(), y.to_decimal()))


def _decnumber_multiply(x: DecNumber, y: DecNumber) -> DecNumber:
    return multiply(x, y, DECIMAL64.context())


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
def test_seeded_sweep_all_classes_matches_stdlib_decimal():
    """>=5k constrained-random pairs across every operand class agree."""
    database = VerificationDatabase(seed=20180401)
    vectors = database.generate_mix(5120, OperandClass.ALL)
    assert len(vectors) >= 5000
    for vector in vectors:
        _assert_same(vector.x, vector.y)


def test_random_wide_sweep_matches_stdlib_decimal():
    """Unconstrained random finite pairs over the full decimal64 envelope."""
    rng = random.Random(97)
    for _ in range(1500):
        x = DecNumber(
            rng.randint(0, 1),
            rng.randint(0, 10 ** rng.randint(1, 16) - 1),
            rng.randint(-398, 369),
        )
        y = DecNumber(
            rng.randint(0, 1),
            rng.randint(0, 10 ** rng.randint(1, 16) - 1),
            rng.randint(-398, 369),
        )
        _assert_same(x, y)


# -------------------------------------------------------------- directed edges
@pytest.mark.parametrize("payload", [0, 1, 999, 999_999, 123456789])
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
            _assert_same(DecNumber(sx, 0, -398), DecNumber(sy, 0, 369))
            _assert_same(DecNumber(sx, 0, 0), DecNumber.infinity(sy))


def test_subnormal_edges_match():
    cases = [
        (DecNumber(0, 1, -398), DecNumber(0, 1, 0)),          # smallest subnormal
        (DecNumber(0, 1, -199), DecNumber(0, 1, -199)),       # etiny product
        (DecNumber(0, 5, -200), DecNumber(0, 1, -199)),       # below etiny
        (DecNumber(0, 10 ** 15, -398), DecNumber(0, 1, 0)),
        (DecNumber(1, 9999999999999999, -383), DecNumber(0, 1, -15)),
        (DecNumber(0, 3, -398), DecNumber(1, 1, -1)),         # rounds to zero
    ]
    for x, y in cases:
        _assert_same(x, y)


def test_overflow_and_clamp_edges_match():
    cases = [
        (DecNumber(0, 9999999999999999, 369), DecNumber(0, 1, 0)),
        (DecNumber(0, 10 ** 8, 200), DecNumber(0, 10 ** 8, 169)),
        (DecNumber(0, 1, 369), DecNumber(0, 1, 5)),            # fold-down clamp
        (DecNumber(1, 123, 370), DecNumber(0, 45, 5)),
    ]
    for x, y in cases:
        _assert_same(x, y)


# ----------------------------------------------------- StdlibDecimalReference
def test_stdlib_reference_flags_and_encoding():
    reference = StdlibDecimalReference()
    golden = GoldenReference()
    database = VerificationDatabase(seed=5)
    for vector in database.generate_mix(250, OperandClass.ALL):
        second = reference.compute(vector.x, vector.y)
        primary = golden.compute(vector.x, vector.y)
        assert second.encoded == primary.encoded
    overflowed = reference.compute(
        DecNumber(0, 9999999999999999, 369), DecNumber(0, 9, 0)
    )
    assert "overflow" in overflowed.flags
    assert overflowed.value.is_infinite
    tiny = reference.compute(DecNumber(0, 1, -398), DecNumber(0, 1, -1))
    assert "underflow" in tiny.flags


# ------------------------------------------------------------ dual-oracle runs
class _WrongSecondary(StdlibDecimalReference):
    """A deliberately broken second oracle (off-by-one coefficients)."""

    def compute(self, x, y):
        result = super().compute(x, y)
        value = result.value
        if value.is_finite and value.coefficient:
            from repro.verification.reference import GoldenResult

            broken = DecNumber(value.sign, value.coefficient - 1, value.exponent)
            return GoldenResult(
                value=broken,
                encoded=self.encode_operand(broken),
                flags=result.flags,
            )
        return result


def _vectors(count=16, seed=11):
    return VerificationDatabase(seed).generate_mix(count)


def test_dual_checker_passes_on_agreeing_oracles_and_correct_kernel():
    vectors = _vectors()
    golden = GoldenReference()
    words = [golden.compute(v.x, v.y).encoded for v in vectors]
    report = DualOracleChecker().check_run(vectors, words)
    assert isinstance(report, DualCheckReport)
    assert report.all_passed
    assert report.total == len(vectors)
    assert not report.oracle_disagreements
    report.raise_on_failure()  # must not raise


def test_dual_checker_reports_kernel_mismatch_as_check_failure():
    vectors = _vectors()
    golden = GoldenReference()
    words = [golden.compute(v.x, v.y).encoded for v in vectors]
    words[3] ^= 1
    report = DualOracleChecker().check_run(vectors, words)
    assert report.failed == 1
    assert not report.oracle_disagreements
    assert not report.all_passed


def test_oracle_disagreement_is_its_own_failure_class():
    vectors = _vectors()
    golden = GoldenReference()
    words = [golden.compute(v.x, v.y).encoded for v in vectors]
    checker = DualOracleChecker(secondary=_WrongSecondary())
    report = checker.check_run(vectors, words)
    # The kernel matches the primary oracle everywhere...
    assert report.failed == 0
    # ...but the oracles disagree on every finite nonzero product.
    assert report.oracle_disagreements
    assert all(
        isinstance(item, OracleDisagreement)
        for item in report.oracle_disagreements
    )
    assert not report.all_passed
    with pytest.raises(VerificationError, match="oracle disagreement"):
        report.raise_on_failure()
    first = report.oracle_disagreements[0]
    assert "oracles disagree" in first.describe()
    assert f"{first.primary_bits:016x}" in first.describe()


def test_dual_checker_is_a_result_checker():
    assert isinstance(DualOracleChecker(), ResultChecker)
