"""Reference work that measures the host's speed.

A shared host runs the same code up to ~1.8x slower, for fractions of a
second up to tens of seconds at a time, while other tenants load it.  The
benchmark times fixed pure-Python work that uses nothing from
``src/repro`` (an interpreter loop, and for requests also decoding a fixed
JSON document) next to each measured piece of work, and divides that
work's host time by the reference's slowdown over its nominal time: the
result is the time it would have taken on the host the baseline was
recorded on.

- ``run.py`` takes a long reading (:func:`reference_seconds`) before and
  after each set-up-only process, when no code under test runs.
- ``worker.py`` runs a slice of it (:class:`Interleaved`) after every
  request and every campaign cell, so that each is scaled by the host's
  speed measured right before and right after it, on the same CPU.  The
  speed of the two CPUs of a shared VM does not correlate; the speed of one
  CPU a few hundred milliseconds apart does.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

#: Steps of one reference run, and how many runs one long reading takes.
REFERENCE_STEPS = 120_000
REFERENCE_REPEATS = 10
#: Median time of one reference run on the host the baseline was recorded
#: on (a 2-core shared VM).
REFERENCE_NOMINAL_S = 0.021
#: A fixed JSON document (three lists of 600 integers, the shape of a
#: cached shard report's sample lists) and the median time to decode it on
#: the host the baseline was recorded on.
DOCUMENT = json.dumps({"lists": [list(range(k * 600, k * 600 + 600))
                                 for k in range(3)]})
DECODE_NOMINAL_S = 0.00015
#: Fewest steps of a slice (~2 ms), and its length relative to the call
#: before it: a slice is timed more precisely the longer it runs.
SLICE_MIN_STEPS = REFERENCE_STEPS // 10
SLICE_SHARE = 0.1


def reference_work(steps: int = REFERENCE_STEPS) -> int:
    """A toy register machine: list and dict indexing, integer arithmetic
    and branches, the mix the simulators' interpreters spend their time on.
    """
    regs = [0] * 8
    memory = {}
    acc = 0
    for step in range(steps):
        op = step & 7
        value = regs[(step >> 3) & 7]
        if op < 4:
            regs[op] = (value + step * 3) & 0xFFFFFFFF
        elif op < 6:
            memory[step & 255] = value ^ step
        else:
            acc = (acc + memory.get((step >> 2) & 255, 1)) % 1000003
    return acc + sum(regs)


def reference_seconds() -> float:
    """Median time of the reference work over ``REFERENCE_REPEATS`` runs."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        started = perf_counter()
        reference_work()
        times.append(perf_counter() - started)
    return statistics.median(times)


def slowdown(steps: int, decode: bool) -> float:
    """Time of a slice over its nominal time.

    The slice runs ``steps`` steps of the reference work; with ``decode``
    it runs half of them and, for the same nominal time, decodes
    ``DOCUMENT``, and the slowdown is the mean of the two parts'.
    """
    if not decode:
        started = perf_counter()
        reference_work(steps)
        elapsed = perf_counter() - started
        return elapsed * REFERENCE_STEPS / (REFERENCE_NOMINAL_S * steps)
    steps //= 2
    nominal = REFERENCE_NOMINAL_S * steps / REFERENCE_STEPS
    decodes = max(1, round(nominal / DECODE_NOMINAL_S))
    started = perf_counter()
    reference_work(steps)
    middle = perf_counter()
    for _ in range(decodes):
        json.loads(DOCUMENT)
    ended = perf_counter()
    return ((middle - started) / nominal
            + (ended - middle) / (decodes * DECODE_NOMINAL_S)) / 2


class Interleaved:
    """Reference slices between measured calls.

    Call :meth:`scale` right after each call with the call's time: it times
    a new slice, about ``SLICE_SHARE`` of that time and at least
    ``SLICE_MIN_STEPS``, and returns the factor for the call from the
    slices just before and just after it.  Campaign cells interpret
    programs, and are scaled by the reference work alone.  Requests also
    decode and merge stored results (``decode=True``): on a shared host,
    JSON decoding slows in some load states by more than the interpreter
    loop does, and cache-hit latency follows it.
    """

    def __init__(self, first_steps: int = SLICE_MIN_STEPS, *,
                 decode: bool = False) -> None:
        self.decode = decode
        self.last = slowdown(first_steps, decode)

    def scale(self, elapsed: float) -> float:
        steps = max(SLICE_MIN_STEPS, round(
            SLICE_SHARE * elapsed / REFERENCE_NOMINAL_S * REFERENCE_STEPS
        ))
        before, self.last = self.last, slowdown(steps, self.decode)
        return 2 / (before + self.last)
