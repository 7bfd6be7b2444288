"""Exception hierarchy shared across the repro package.

Keeping every error type in one module lets callers catch the broad
:class:`ReproError` when they only care about "something in the framework
failed", while tests can assert on the precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class EncodingError(ReproError):
    """An instruction could not be encoded (bad operand, out-of-range field)."""


class DecodingError(ReproError):
    """A machine word could not be decoded into a known instruction."""


class AssemblerError(ReproError):
    """The assembler rejected a program (syntax, unknown mnemonic, bad label)."""


class LinkError(ReproError):
    """Symbol resolution or section layout failed."""


class SimulationError(ReproError):
    """The functional or timing simulator hit an unrecoverable condition."""


class MemoryError_(SimulationError):
    """An access touched unmapped or misaligned memory.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class TrapError(SimulationError):
    """The simulated hart raised a trap the environment does not handle."""


class AcceleratorError(ReproError):
    """The RoCC accelerator received an invalid command or malformed operand."""


class DecimalError(ReproError):
    """The decimal library was asked to do something invalid."""


class InvalidOperationError(DecimalError):
    """IEEE 754 invalid-operation condition surfaced as an exception."""


class VerificationError(ReproError):
    """A simulated result disagreed with the golden reference."""


class ConfigurationError(ReproError):
    """An evaluation/test-generator configuration is inconsistent."""


class CampaignError(ReproError):
    """A campaign lost work it cannot recover, e.g. to a dead worker process."""
