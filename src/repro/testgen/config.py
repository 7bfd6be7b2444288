"""Configuration of one generated test program."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.decnumber.formats import PRECISION_BY_FORMAT, get_format
from repro.errors import ConfigurationError
from repro.verification.database import OperandClass


class SolutionKind:
    """Which decimal-multiplication solution the generated program runs."""

    SOFTWARE = "software"            # decNumber-style pure-software baseline
    METHOD1 = "method1"              # Method-1 with the RoCC accelerator
    METHOD1_DUMMY = "method1_dummy"  # Method-1 with dummy functions

    ALL = (SOFTWARE, METHOD1, METHOD1_DUMMY)


@dataclass(frozen=True)
class TestProgramConfig:
    """The generator parameters listed in Section III of the paper."""

    solution: str = SolutionKind.METHOD1
    precision: str = "double"               # "double" (decimal64) or "quad"
    operation: str = "multiply"
    operand_classes: tuple = OperandClass.TABLE_IV_MIX
    num_samples: int = 100
    repetitions: int = 1                    # repetitions per calculation
    seed: int = 2018
    #: Registered workload name; when set, the generator draws operand
    #: vectors from ``repro.workloads.get_workload(workload)`` instead of
    #: the class-mix database (``operand_classes`` is then ignored).  The
    #: name is resolved when vectors are generated, not here: configs built
    #: in campaign worker processes carry the name as provenance for
    #: vectors already generated in the parent, and the worker's registry
    #: need not know user-registered workloads.
    workload: str = None

    def __post_init__(self) -> None:
        if self.solution not in SolutionKind.ALL:
            raise ConfigurationError(f"unknown solution: {self.solution!r}")
        if self.precision not in ("double", "quad"):
            raise ConfigurationError(f"unknown precision: {self.precision!r}")
        from repro.decnumber.operations import OPERATIONS

        if self.operation not in OPERATIONS:
            raise ConfigurationError(
                f"unsupported operation {self.operation!r}: known operations "
                f"are {', '.join(sorted(OPERATIONS))}"
            )
        if self.num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be at least 1")
        for name in self.operand_classes:
            if name not in OperandClass.ALL:
                raise ConfigurationError(f"unknown operand class: {name!r}")

    @property
    def uses_accelerator(self) -> bool:
        return self.solution == SolutionKind.METHOD1

    @property
    def fmt(self) -> str:
        """Canonical interchange-format name of this configuration."""
        return "decimal64" if self.precision == "double" else "decimal128"

    @property
    def format_spec(self):
        """The :class:`~repro.decnumber.formats.InterchangeFormat` in use."""
        return get_format(self.fmt)

    @classmethod
    def precision_for_format(cls, fmt) -> str:
        """Map a format name/spec onto the config's precision vocabulary."""
        return PRECISION_BY_FORMAT[get_format(fmt).name]

    def with_overrides(self, **overrides) -> "TestProgramConfig":
        from dataclasses import replace

        return replace(self, **overrides)
