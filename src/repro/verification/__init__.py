"""Verification layer: operand database, golden reference, result checking.

Plays the role of the "Test and verification Database" box of Fig. 2 (the
paper uses the constraint-based decimal verification vectors of reference
[18]): a seeded, constrained-random generator produces operand pairs in the
paper's input classes (normal / rounding / overflow / underflow / clamping /
special values), the golden reference computes the expected IEEE 754-2008
results with :mod:`repro.decnumber`, and the checker compares what a simulated
kernel wrote back to memory against those expectations.  The differential
pieces — the cross-model result diff (:class:`Divergence`) and the
dual-oracle checker — run inside a differential campaign shard
(:func:`repro.core.evaluation.run_solution_shard`), the one co-simulation
path.
"""

from repro.verification.database import OperandClass, VerificationDatabase, VerificationVector
from repro.verification.reference import GoldenReference
from repro.verification.checker import CheckFailure, CheckReport, ResultChecker
from repro.verification.coverage import CoverageTracker
from repro.verification.differential import (
    Divergence,
    DualCheckReport,
    DualOracleChecker,
    OracleDisagreement,
    StdlibDecimalReference,
    dual_checker_for_workload,
)

__all__ = [
    "OperandClass",
    "VerificationDatabase",
    "VerificationVector",
    "GoldenReference",
    "CheckFailure",
    "CheckReport",
    "ResultChecker",
    "CoverageTracker",
    "Divergence",
    "DualCheckReport",
    "DualOracleChecker",
    "OracleDisagreement",
    "StdlibDecimalReference",
    "dual_checker_for_workload",
]
