"""RISC-V assembly kernels for the evaluated decimal solutions.

Every kernel implements the full IEEE 754-2008 flow of the paper's Fig. 1
(special values, zero handling, rounding, overflow/underflow/clamping) for
one (format, operation) pair, in the three variants of Table IV, so its
results can be checked against the golden library:

* ``software`` — the pure-software baseline in the style of the decNumber
  library: binary-ALU arithmetic, table-driven DPD conversion, no
  accelerator;
* ``method1`` — Method-1 of the paper's reference [9]: the software part
  orchestrates DPD<->BCD conversion, digit extraction and rounding while
  the hardware part runs on the RoCC decimal accelerator (Table II);
* ``method1_dummy`` — the same software flow with every accelerator
  invocation replaced by a *dummy function* with a fixed return value, the
  estimation methodology the paper compares against.

:mod:`repro.kernels.stages` is the one library of Fig. 1 stages the kernel
modules are emitted through: :mod:`~repro.kernels.software_mul` and
:mod:`~repro.kernels.method1` (decimal64 multiply),
:mod:`~repro.kernels.wide_mul` and :mod:`~repro.kernels.wide_method1`
(decimal128 multiply) and :mod:`~repro.kernels.addsub_fma` (add, subtract
and fma for both formats).
"""

from repro.kernels.tables import emit_tables, TABLE_SYMBOLS
from repro.kernels.addsub_fma import emit_addsub_kernel, emit_fma_kernel
from repro.kernels.method1 import emit_mul_kernel
from repro.kernels.wide_method1 import emit_wide_mul_kernel

__all__ = [
    "emit_tables",
    "TABLE_SYMBOLS",
    "emit_addsub_kernel",
    "emit_fma_kernel",
    "emit_mul_kernel",
    "emit_wide_mul_kernel",
]
