"""Pure-Python IEEE 754-2008 decimal floating-point library.

This subpackage plays the role of IBM's decNumber C library in the paper: it
is both the *golden reference* used for functional verification and the
algorithmic template for the pure-software baseline kernel that is lowered to
RISC-V assembly in :mod:`repro.kernels.software_mul`.

Public surface:

* :class:`~repro.decnumber.context.Context` / rounding-mode constants / flags
* :class:`~repro.decnumber.number.DecNumber` — sign / coefficient / exponent
  triple plus special values
* :mod:`~repro.decnumber.arith` — ``add``, ``subtract``, ``multiply``,
  ``fma``, ``compare`` under a context
* :mod:`~repro.decnumber.operations` — the :class:`Operation` registry
  (mul/add/sub/fma) the evaluation stack dispatches on
* :mod:`~repro.decnumber.dpd` — densely-packed-decimal declet codec
* :data:`~repro.decnumber.formats.DECIMAL64` /
  :data:`~repro.decnumber.formats.DECIMAL128` — interchange-format
  pack/unpack (:class:`~repro.decnumber.formats.FormatSpec`)
"""

from repro.decnumber.context import (
    Context,
    Flags,
    ROUND_CEILING,
    ROUND_DOWN,
    ROUND_FLOOR,
    ROUND_HALF_DOWN,
    ROUND_HALF_EVEN,
    ROUND_HALF_UP,
    ROUND_UP,
    DECIMAL64_CONTEXT,
    DECIMAL128_CONTEXT,
)
from repro.decnumber.number import DecNumber
from repro.decnumber.arith import add, compare, fma, multiply, subtract
from repro.decnumber.operations import (
    OPERATIONS,
    Operation,
    get_operation,
    operation_names,
    resolve_operation_name,
)
from repro.decnumber.formats import (
    DECIMAL64,
    DECIMAL128,
    FORMATS,
    FormatSpec,
    format_names,
    get_format,
    resolve_format_name,
)
from repro.decnumber import dpd, bcd

__all__ = [
    "DECIMAL64",
    "DECIMAL128",
    "FORMATS",
    "FormatSpec",
    "format_names",
    "get_format",
    "resolve_format_name",
    "Context",
    "Flags",
    "ROUND_CEILING",
    "ROUND_DOWN",
    "ROUND_FLOOR",
    "ROUND_HALF_DOWN",
    "ROUND_HALF_EVEN",
    "ROUND_HALF_UP",
    "ROUND_UP",
    "DECIMAL64_CONTEXT",
    "DECIMAL128_CONTEXT",
    "DecNumber",
    "OPERATIONS",
    "Operation",
    "get_operation",
    "operation_names",
    "resolve_operation_name",
    "add",
    "subtract",
    "multiply",
    "fma",
    "compare",
    "dpd",
    "bcd",
]
