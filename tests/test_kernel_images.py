"""Pinned instruction streams: one digest per linked kernel image.

Every (format, operation, solution) the grid can build is linked at two
harness shapes (4 samples x 1 repetition and 9 x 3, seed 7) and hashed.
The digest covers each segment's name, base address and bytes plus the
entry address; the symbol table is left out, so kernel labels may change
freely while every emitted instruction and data word stays pinned.

Regenerate ``tests/golden/kernel_images.json`` (only when an instruction
stream change is intended) with::

    PYTHONPATH=src python tests/test_kernel_images.py --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys

import pytest

from repro.decnumber.formats import FORMATS
from repro.decnumber.operations import OPERATIONS
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "kernel_images.json"
)

SEED = 7
#: Harness shapes as (samples, repetitions).
SHAPES = ((4, 1), (9, 3))


def _cases():
    return [
        (fmt, operation, solution, samples, repetitions)
        for fmt, operation, solution, (samples, repetitions) in itertools.product(
            FORMATS, OPERATIONS, SolutionKind.ALL, SHAPES
        )
    ]


def _key(fmt, operation, solution, samples, repetitions) -> str:
    return f"{fmt}/{operation}/{solution}/{samples}x{repetitions}"


def image_digest(image) -> str:
    """sha256 over the image's segments (name, base, bytes) and entry."""
    digest = hashlib.sha256()
    for name in sorted(image.segments):
        base, data = image.segments[name]
        digest.update(f"{name}@{base:#x}+{len(data)}\n".encode())
        digest.update(bytes(data))
    digest.update(f"entry@{image.entry:#x}\n".encode())
    return digest.hexdigest()


def build_digest(fmt, operation, solution, samples, repetitions) -> str:
    config = TestProgramConfig(
        solution=solution,
        precision=TestProgramConfig.precision_for_format(fmt),
        operation=operation,
        num_samples=samples,
        repetitions=repetitions,
        seed=SEED,
    )
    return image_digest(build_test_program(config).image)


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_exactly_the_grid():
    assert sorted(_golden()) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("case", _cases(), ids=lambda case: _key(*case))
def test_kernel_image_matches_golden(case):
    assert build_digest(*case) == _golden()[_key(*case)]


def write_golden() -> None:
    digests = {_key(*case): build_digest(*case) for case in _cases()}
    with open(GOLDEN_PATH, "w") as handle:
        handle.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_kernel_images.py --write")
    write_golden()
