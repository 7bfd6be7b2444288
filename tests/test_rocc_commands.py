"""The accelerator's per-command contract, pinned in ``golden/rocc_commands.json``.

Every Table II funct7 plus one unknown code runs under all eight
``xd``/``xs1``/``xs2`` combinations from one seeded pre-state with BCD
operands, on the decimal64 and decimal128 datapaths (multiplier included).
A non-BCD operand is also fed into each slot of the BCD-checking commands.
Each case records the response flag, value and busy cycles plus the
register file (registers that changed), accumulator and status afterwards
-- or only that :class:`AcceleratorError` was raised.

Re-record (only for an intended contract change) with::

    PYTHONPATH=src python tests/test_rocc_commands.py --write
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from repro.errors import AcceleratorError
from repro.isa.rocc import DecimalFunct
from repro.rocc.decimal_accel import DecimalAccelerator, DecimalAcceleratorConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "rocc_commands.json"
FORMATS = ("decimal64", "decimal128")
UNKNOWN_FUNCT7 = 0x7F
#: Instruction fields: rd doubles as the WR word lane, rs1/rs2 address the
#: register set (or are RD selectors / DEC_ACCUM indices) when xs is clear.
RD, RS1, RS2 = 1, 3, 5
#: Core operands: a 16-digit BCD word and a small BCD value that is also a
#: valid RD selector (status), register index and DEC_ACCUM/FMA shift.
RS2_VALUE = 0x12
#: Non-BCD operands: an invalid middle nibble in a core word, an invalid top
#: digit in a register-set value, an invalid low digit in the accumulator.
BAD_CORE = 0x123456789A123456
BAD_DIGIT = 0xB


class _Memory:
    """RoCC memory port stub: a deterministic 64-bit word per address."""

    def read(self, address, size):
        assert size == 8
        return (address * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF


def _bcd(rng, digits):
    return int("".join(rng.choice("0123456789") for _ in range(digits)), 16)


@functools.cache
def _pre_state(fmt):
    """Seeded register set, accumulator, status and rs1 operand for ``fmt``."""
    config = _config(fmt)
    rng = random.Random(2018)
    regfile = tuple(
        _bcd(rng, config.register_width_digits)
        for _ in range(config.num_registers)
    )
    return {
        "regfile": regfile,
        "accumulator": _bcd(rng, config.accumulator_digits),
        "status": rng.randrange(4),
        "rs1_value": _bcd(rng, 16),
    }


def _config(fmt):
    return DecimalAcceleratorConfig.for_format(fmt, include_multiplier=True)


def _run(fmt, funct7, xd, xs1, xs2, rs1_value=None, rs2_value=RS2_VALUE,
         regfile=None, accumulator=None):
    """Execute one command on a fresh accelerator; return its record."""
    pre = _pre_state(fmt)
    before = list(pre["regfile"])
    for index, value in (regfile or {}).items():
        before[index] = value
    accel = DecimalAccelerator(_config(fmt))
    for index, value in enumerate(before):
        accel.regfile.write(index, value)
    accel.accumulator = pre["accumulator"] if accumulator is None else accumulator
    accel.status = pre["status"]
    try:
        has_response, value, busy_cycles = accel.execute(
            funct7=funct7, rd=RD, rs1=RS1, rs2=RS2,
            rs1_value=pre["rs1_value"] if rs1_value is None else rs1_value,
            rs2_value=rs2_value, xd=xd, xs1=xs1, xs2=xs2, memory=_Memory(),
        )
    except AcceleratorError:
        return {"error": "AcceleratorError"}
    after = accel.regfile.snapshot()
    return {
        "has_response": has_response,
        "value": hex(value),
        "busy_cycles": busy_cycles,
        "regfile": {
            str(i): hex(v) for i, v in enumerate(after) if v != before[i]
        },
        "accumulator": hex(accel.accumulator),
        "status": accel.status,
    }


def _flag_cases(fmt, funct7):
    return {
        f"xd{int(xd)}xs1{int(xs1)}xs2{int(xs2)}": _run(fmt, funct7, xd, xs1, xs2)
        for xd, xs1, xs2 in itertools.product((False, True), repeat=3)
    }


def _non_bcd_cases(fmt):
    """A non-BCD value in each operand slot of the BCD-checking commands."""
    config = _config(fmt)
    bad_register = BAD_DIGIT << (4 * (config.register_width_digits - 1)) | 0x42
    # DEC_ACCUM shifts the accumulator up a digit first: keep the bad one low.
    bad_accumulator = BAD_DIGIT << 4 | 0x7
    cases = {}
    for name in ("DEC_ADD", "DEC_ADDSUB"):
        funct7 = DecimalFunct.BY_NAME[name]
        for xd in (False, True):
            cases[f"{name}/op1-core/xd{int(xd)}"] = _run(
                fmt, funct7, xd, True, True, rs1_value=BAD_CORE)
            cases[f"{name}/op2-core/xd{int(xd)}"] = _run(
                fmt, funct7, xd, True, True, rs2_value=BAD_CORE)
            cases[f"{name}/op1-reg/xd{int(xd)}"] = _run(
                fmt, funct7, xd, False, False, regfile={RS1: bad_register})
            cases[f"{name}/op2-reg/xd{int(xd)}"] = _run(
                fmt, funct7, xd, False, False, regfile={RS2: bad_register})
    for name in ("DEC_ADDC", "DEC_SUBB"):
        funct7 = DecimalFunct.BY_NAME[name]
        cases[f"{name}/op1-core"] = _run(
            fmt, funct7, True, True, True, rs1_value=BAD_CORE)
        cases[f"{name}/op2-core"] = _run(
            fmt, funct7, True, True, True, rs2_value=BAD_CORE)
    funct7 = DecimalFunct.DEC_ACCUM
    for xd in (False, True):
        cases[f"DEC_ACCUM/addend-reg/xd{int(xd)}"] = _run(
            fmt, funct7, xd, False, False, regfile={RS1: bad_register})
        cases[f"DEC_ACCUM/accumulator/xd{int(xd)}"] = _run(
            fmt, funct7, xd, False, False, accumulator=bad_accumulator)
    return cases


GROUPS = (*DecimalFunct.BY_NAME, DecimalFunct.name_for(UNKNOWN_FUNCT7), "non-BCD")


def _group(fmt, group):
    if group == "non-BCD":
        return _non_bcd_cases(fmt)
    funct7 = DecimalFunct.BY_NAME.get(group, UNKNOWN_FUNCT7)
    return _flag_cases(fmt, funct7)


@functools.cache
def _golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_commands_match_golden(fmt, group):
    assert _group(fmt, group) == _golden()[fmt][group]


def test_golden_covers_both_outcomes():
    """Every funct7 succeeds somewhere in the grid; the unknown code and
    every non-BCD operand are rejected."""
    for fmt in FORMATS:
        for name in DecimalFunct.BY_NAME:
            records = _golden()[fmt][name].values()
            assert any("error" not in r for r in records), (fmt, name)
        unknown = _golden()[fmt][DecimalFunct.name_for(UNKNOWN_FUNCT7)]
        assert all(r == {"error": "AcceleratorError"} for r in unknown.values())
        assert all(r == {"error": "AcceleratorError"}
                   for r in _golden()[fmt]["non-BCD"].values())


def write_golden() -> None:
    golden = {fmt: {group: _group(fmt, group) for group in GROUPS}
              for fmt in FORMATS}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_rocc_commands.py --write")
    write_golden()
