"""Cross-model differential verification: result diffs + dual oracles.

The paper's measurement story rests on three independent execution paths —
Spike-style functional simulation, the Rocket-like cycle-accurate emulator,
and the gem5 SE-mode atomic model — but trusting them individually is not the
same as proving they agree.  This module closes that gap from two directions:

* :func:`diff_result_words` diffs the architectural result buffers that the
  models read back from *the same linked test program*, vector by vector,
  into :class:`Divergence` records that pinpoint each diverging vector, its
  operand class and every model's word;
* the :class:`DualOracleChecker` extends the plain
  :class:`~repro.verification.checker.ResultChecker` so every expected value
  is computed **twice** — once by our :mod:`repro.decnumber` port and once by
  Python's independently implemented stdlib :mod:`decimal` module, under
  the run's interchange format.  A kernel mismatch is still a
  :class:`~repro.verification.checker.CheckFailure`; the two oracles
  disagreeing with *each other* is reported as its own failure class
  (:class:`OracleDisagreement`), because it means the reference itself —
  not the kernel — is suspect.

Both pieces run inside :func:`repro.core.evaluation.run_solution_shard` on a
differential :class:`~repro.core.campaign.CampaignCell`, the one
co-simulation path: ``python -m repro.campaign --differential`` shards it
over worker processes, and the fuzz engine (:mod:`repro.fuzz`) runs one
such shard per batch.
"""

from __future__ import annotations

import decimal as _pydecimal

from dataclasses import dataclass, field

from repro.decnumber.formats import DECIMAL64
from repro.decnumber.number import DecNumber
from repro.errors import ConfigurationError
from repro.verification.checker import CheckReport, ResultChecker
from repro.verification.reference import GoldenReference, GoldenResult

#: The models a differential shard co-simulates, in report order; spike's
#: results are the ones the oracle check judges.
MODELS = ("spike", "rocket", "gem5")

#: stdlib ``decimal`` signal classes -> our flag names.
_PYTHON_SIGNALS = {
    "inexact": _pydecimal.Inexact,
    "rounded": _pydecimal.Rounded,
    "overflow": _pydecimal.Overflow,
    "underflow": _pydecimal.Underflow,
    "subnormal": _pydecimal.Subnormal,
    "clamped": _pydecimal.Clamped,
    "invalid": _pydecimal.InvalidOperation,
    "division_by_zero": _pydecimal.DivisionByZero,
}


# --------------------------------------------------------------------- oracles
class StdlibDecimalReference:
    """Independent golden oracle built on Python's stdlib :mod:`decimal`.

    The stdlib module implements the same General Decimal Arithmetic
    specification as decNumber but shares no code with our port, which makes
    it a genuinely independent second opinion.  Results are computed under
    the context matching ``precision`` — the decimal64 context (16 digits,
    emax 384, clamp) or the decimal128 one (34 digits, emax 6144) — and
    re-encoded through the same interchange encoder the primary reference
    uses, so the two oracles are compared bit-for-bit.  ``precision``
    accepts "double"/"quad" or the canonical format names.
    """

    def __init__(self, operation: str = "multiply", precision: str = "double") -> None:
        # Reuse the primary reference for operation/precision validation and
        # for the interchange encode/decode plumbing.
        self._golden = GoldenReference(operation=operation, precision=precision)
        self.operation = operation
        self.precision = precision

    def context(self):
        """The equivalent stdlib :class:`decimal.Context` (fresh flags)."""
        return self._golden.context().to_python_context()

    def compute(self, *operands: DecNumber) -> GoldenResult:
        """Expected result of op(operands) per the stdlib decimal oracle.

        The canonical operation names double as :class:`decimal.Context`
        method names (``multiply``/``add``/``subtract``/``fma``), so the
        dispatch is a plain ``getattr`` for binary and ternary ops alike.
        """
        ctx = self.context()
        operation = getattr(ctx, self.operation)
        value = DecNumber.from_decimal(
            operation(*(operand.to_decimal() for operand in operands))
        )
        flags = frozenset(
            name
            for name, signal in _PYTHON_SIGNALS.items()
            if ctx.flags.get(signal)
        )
        encoded = self._golden.encode_operand(value)
        return GoldenResult(value=value, encoded=encoded, flags=flags)

    def encode_operand(self, value: DecNumber) -> int:
        return self._golden.encode_operand(value)

    def decode(self, word: int) -> DecNumber:
        return self._golden.decode(word)


@dataclass(frozen=True)
class OracleDisagreement:
    """The two reference oracles produced different expected values.

    Distinct from :class:`~repro.verification.checker.CheckFailure`: the
    kernel may well match one of the oracles — the point is that the golden
    *references* cannot both be right, so the sample proves a reference bug
    (or a genuine specification ambiguity) rather than a kernel bug.
    """

    index: int
    operand_class: str
    x: DecNumber
    y: DecNumber
    primary: DecNumber
    secondary: DecNumber
    primary_bits: int
    secondary_bits: int
    z: DecNumber = None
    operation: str = "multiply"

    @property
    def operands(self) -> tuple:
        return (self.x, self.y) if self.z is None else (self.x, self.y, self.z)

    def describe(self) -> str:
        from repro.verification.checker import render_application

        return (
            f"sample {self.index} [{self.operand_class}]: oracles disagree on "
            f"{render_application(self.operation, *self.operands)} -> "
            f"decnumber {self.primary} "
            f"(0x{self.primary_bits:016x}) vs stdlib-decimal {self.secondary} "
            f"(0x{self.secondary_bits:016x})"
        )


@dataclass
class DualCheckReport(CheckReport):
    """A :class:`CheckReport` that also tracks oracle disagreements."""

    oracle_disagreements: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return super().all_passed and not self.oracle_disagreements

    def raise_on_failure(self, max_reported: int = 5) -> None:
        if self.oracle_disagreements:
            from repro.errors import VerificationError

            detail = "\n".join(
                item.describe()
                for item in self.oracle_disagreements[:max_reported]
            )
            raise VerificationError(
                f"{len(self.oracle_disagreements)}/{self.total} samples with "
                f"oracle disagreement:\n{detail}"
            )
        super().raise_on_failure(max_reported)


class DualOracleChecker(ResultChecker):
    """Checks kernel results against two independently computed references.

    Every expected value is computed by the ``primary`` reference (the
    decNumber port — or a workload's custom oracle) *and* the ``secondary``
    stdlib-decimal reference.  Kernel-vs-primary mismatches are recorded as
    ordinary :class:`CheckFailure`; primary-vs-secondary mismatches become
    :class:`OracleDisagreement` entries, a separate failure class that fails
    the run on its own.  ``fmt`` selects the interchange format both
    default oracles compute under.
    """

    def __init__(self, primary=None, secondary=None, fmt: str = "decimal64",
                 operation: str = "multiply") -> None:
        super().__init__(
            primary
            if primary is not None
            else GoldenReference(operation=operation, precision=fmt)
        )
        self.secondary = (
            secondary
            if secondary is not None
            else StdlibDecimalReference(operation=operation, precision=fmt)
        )

    def _new_report(self) -> DualCheckReport:
        return DualCheckReport()

    def _cross_check(self, report, vector, golden) -> None:
        second = self.secondary.compute(*vector.operands)
        if golden.encoded != second.encoded:
            report.oracle_disagreements.append(
                OracleDisagreement(
                    index=vector.index,
                    operand_class=vector.operand_class,
                    x=vector.x,
                    y=vector.y,
                    z=getattr(vector, "z", None),
                    operation=self.secondary.operation,
                    primary=golden.value,
                    secondary=second.value,
                    primary_bits=golden.encoded,
                    secondary_bits=second.encoded,
                )
            )


def dual_checker_for_workload(workload: str = None, fmt: str = "decimal64",
                              operation: str = "multiply") -> ResultChecker:
    """The differential-mode checker for a (possibly workload-scoped) run.

    Mirrors :func:`repro.core.evaluation.checker_for_workload`: a resolvable
    workload name contributes its own :meth:`~repro.workloads.Workload.
    expected` oracle (falling back to the golden library for unknown names
    in spawn-started workers).  The stdlib-decimal cross-check only makes
    sense against the golden-default oracle, so a workload that *overrides*
    ``expected()`` — a domain-specific notion of correctness the stdlib
    module cannot second-guess — keeps its own single-oracle checker
    instead of drowning in spurious disagreements.
    """
    if workload is not None:
        from repro.workloads import Workload, get_workload

        try:
            resolved = get_workload(workload)
        except ConfigurationError:
            resolved = None
        if resolved is not None:
            if type(resolved).expected is not Workload.expected:
                return resolved.make_checker(fmt, operation)
            return DualOracleChecker(
                primary=resolved.make_checker(fmt, operation).reference,
                fmt=fmt,
                operation=operation,
            )
    return DualOracleChecker(fmt=fmt, operation=operation)


# ----------------------------------------------------------------- result diff
@dataclass(frozen=True)
class Divergence:
    """One vector on which the models' architectural results differ."""

    index: int
    operand_class: str
    x: DecNumber
    y: DecNumber
    words: dict          # model name -> result word
    values: dict         # model name -> decoded DecNumber
    z: DecNumber = None
    operation: str = "multiply"

    def disagreeing_models(self) -> tuple:
        """Models whose word differs from the (majority) reference word."""
        counts = {}
        for word in self.words.values():
            counts[word] = counts.get(word, 0) + 1
        reference = max(counts, key=lambda word: (counts[word], -word))
        return tuple(
            sorted(model for model, word in self.words.items() if word != reference)
        )

    def describe(self) -> str:
        from repro.verification.checker import render_application

        operands = (self.x, self.y) if self.z is None else (self.x, self.y, self.z)
        per_model = ", ".join(
            f"{model}={self.values[model]} (0x{self.words[model]:016x})"
            for model in sorted(self.words)
        )
        return (
            f"vector {self.index} [{self.operand_class}]: "
            f"{render_application(self.operation, *operands)} -> {per_model}"
        )


def diff_result_words(vectors, words_by_model, decode=None,
                      operation: str = "multiply") -> list:
    """Vector-by-vector cross-model diff of architectural result words.

    ``words_by_model`` maps each model name to its full result-word list
    (aligned with ``vectors``).  Returns one :class:`Divergence` per vector
    on which any two models disagree.
    """
    if decode is None:
        decode = DECIMAL64.decode
    divergences = []
    for position, vector in enumerate(vectors):
        words = {
            model: model_words[position]
            for model, model_words in words_by_model.items()
        }
        if len(set(words.values())) > 1:
            divergences.append(
                Divergence(
                    index=vector.index,
                    operand_class=vector.operand_class,
                    x=vector.x,
                    y=vector.y,
                    z=getattr(vector, "z", None),
                    operation=operation,
                    words=words,
                    values={
                        model: decode(word) for model, word in words.items()
                    },
                )
            )
    return divergences
