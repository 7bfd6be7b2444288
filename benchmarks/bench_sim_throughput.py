"""Simulator-throughput benchmark for the threaded-code execution engine.

Measures retired instructions per host second on the paper's software-multiply
kernel (the Table IV "Software" row) across all three simulator front ends:

* functional (``SpikeSimulator``; the headline ``functional`` number is a
  warm rerun — one simulator ``reset()`` and run again over the same image,
  its decoded closures and superblocks kept, exactly what a campaign
  worker's ``BatchRunner`` hands out on a hit — with the cold-start single
  run recorded alongside as ``functional_cold``),
* cycle-accurate (``RocketEmulator``; the headline ``rocket`` number is the
  warm steady state — ``reset()`` restores cold caches and zeroed cycle
  state while the compiled timing spans stay warm, exactly what
  ``BatchRunner.acquire_timed`` gives a campaign worker — with the
  cold-start single run recorded alongside as ``rocket_cold`` and a
  ``timing_tier=False`` interpreted run as ``rocket_interpreted``; every
  warm run's result digest *and* total cycle count are asserted equal to
  the cold run's, and the cold run's cycles to the interpreted run's),
* gem5-style atomic (``AtomicSimpleCPU``, the functional machine at 1 CPI),

and appends the run to ``BENCH_sim.json`` at the repository root so future
PRs can track the throughput trajectory.  The recorded speedups are relative
to the seed string-dispatch interpreter's reference throughput (measured on
the reference machine before the threaded-code engine landed).

Each record also carries the Rocket timing tier's counters
(``rocket_tiers``) and a SHA-256 digest of the result buffer, asserted
identical between the cold and every warm run before anything is
recorded: the speedup must never change a single bit.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py [--samples N]
        [--repeats N] [--out PATH]

This is a standalone script (not collected by pytest); CI runs it with a tiny
sample count as a smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.campaign import positive_int, samples_from_env  # noqa: E402
from repro.gem5.atomic_cpu import AtomicSimpleCPU  # noqa: E402
from repro.rocket.core import RocketEmulator  # noqa: E402
from repro.sim.spike import SpikeSimulator  # noqa: E402
from repro.testgen.config import SolutionKind, TestProgramConfig  # noqa: E402
from repro.testgen.generator import build_test_program  # noqa: E402

#: Seed interpreter throughput on the reference machine (instr/s), measured
#: on the software-multiply kernel before the threaded-code engine replaced
#: the per-instruction string dispatch.
SEED_BASELINE = {"functional": 365_000, "rocket": 152_000}

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_sim.json")

#: Same-run throughput ratios ``--check-regression`` requires, as
#: ``(faster, slower, factor)`` over ``instr_per_s``: warm compiled timing
#: spans must beat the interpreted Rocket loop, and a warm emulator its own
#: cold start, by ``factor``.  Both rates come from one run on one host, so
#: the gate does not depend on how fast the host is.
RATE_RATIOS = (
    ("rocket", "rocket_interpreted", 2.0),
    ("rocket", "rocket_cold", 2.0),
)

#: Record fields (dotted paths) that repeat exactly on any host for a given
#: sample count: ``--check-regression`` requires them to equal the latest
#: history entry at that count.
DETERMINISTIC_COUNTS = (
    "results_sha256",
    "instructions",
    "rocket_tiers.cycles",
    "rocket_tiers.timing_spans",
    "rocket_tiers.compiled_instructions",
)


def _best_of(repeats, make_and_run):
    """Return (instructions, best_instr_per_s) over ``repeats`` fresh runs."""
    best = 0.0
    instructions = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = make_and_run()
        elapsed = time.perf_counter() - start
        instructions = result.instructions_retired
        best = max(best, instructions / elapsed)
    return instructions, best


def _result_digest(program, result) -> str:
    """SHA-256 over the result buffer — the bit-identity witness."""
    words = program.read_results(result)
    blob = b"".join(word.to_bytes(16, "little") for word in words)
    return hashlib.sha256(blob).hexdigest()


def _measure_warm(program, repeats: int, cold_digest: str) -> float:
    """Best warm-rerun rate: one simulator, ``reset()`` between runs.

    Every warm run's result digest is asserted equal to the cold run's
    before anything is recorded.
    """
    simulator = SpikeSimulator(program.image)
    result = simulator.run()
    assert _result_digest(program, result) == cold_digest, \
        "first run diverged from cold run"
    best = 0.0
    for _ in range(max(repeats, 3)):
        simulator.reset()
        start = time.perf_counter()
        result = simulator.run()
        elapsed = time.perf_counter() - start
        best = max(best, result.instructions_retired / elapsed)
        assert _result_digest(program, result) == cold_digest, \
            "warm run diverged from cold run"
    return best


def _measure_rocket(image, program, repeats: int, cold_digest: str) -> tuple:
    """Cycle-accurate rates: ``(interpreted, cold, warm, rocket_tiers)``.

    The interpreted number is one fresh ``timing_tier=False`` run.  The
    cold number is a fresh-emulator single run (decode and timing-span
    compilation on the clock), repeated ``repeats`` times best-of.  The warm
    number reruns one emulator through :meth:`RocketEmulator.reset` — cold
    caches, reseeded replacement PRNGs, zeroed cycle state, warm timing
    compiler — which is what ``BatchRunner.acquire_timed`` hands a campaign
    worker on a hit.  Three identities are asserted before anything is
    recorded: every run's result digest equals the functional cold digest,
    every warm run's cycle count equals the timing-tier cold run's, and the
    timing-tier cold cycle count equals a ``timing_tier=False`` interpreted
    run's — the compiled timing tier must be bit-invisible.
    """
    interpreted = RocketEmulator(image, timing_tier=False)
    start = time.perf_counter()
    interpreted_result = interpreted.run()
    interpreted_rate = (
        interpreted_result.instructions_retired
        / (time.perf_counter() - start)
    )
    assert _result_digest(program, interpreted_result) == cold_digest, \
        "interpreted rocket run diverged from functional result"

    cold = 0.0
    emulator = None
    cycles = None
    for _ in range(repeats):
        emulator = RocketEmulator(image)
        start = time.perf_counter()
        result = emulator.run()
        elapsed = time.perf_counter() - start
        cold = max(cold, result.instructions_retired / elapsed)
        assert _result_digest(program, result) == cold_digest, \
            "timing-tier rocket run diverged from functional result"
        assert result.cycles == interpreted_result.cycles, \
            "timing tier changed the cycle count vs the interpreted model"
        cycles = result.cycles

    warm = 0.0
    for _ in range(max(repeats, 3)):
        emulator.reset()
        start = time.perf_counter()
        result = emulator.run()
        elapsed = time.perf_counter() - start
        warm = max(warm, result.instructions_retired / elapsed)
        assert _result_digest(program, result) == cold_digest, \
            "warm rocket run diverged from cold run"
        assert result.cycles == cycles, \
            "warm rocket run changed the cycle count vs the cold run"

    compiled = emulator.timing_compiled_instructions
    interpreted_instrs = emulator.timing_interpreted_instructions
    tiers = {
        "cycles": cycles,
        "compiled_instructions": compiled,
        "interpreted_instructions": interpreted_instrs,
        "timing_spans": emulator.timing_spans,
        "timing_compile_seconds": round(emulator.timing_compile_seconds, 4),
        "timing_deopts": emulator.timing_deopts,
    }
    return interpreted_rate, cold, warm, tiers


def run_benchmark(samples: int, repeats: int) -> dict:
    """The JSON record of one benchmark run."""
    config = TestProgramConfig(
        solution=SolutionKind.SOFTWARE, num_samples=samples, seed=2018
    )
    program = build_test_program(config)
    image = program.image

    cold_result = [None]

    def _cold_run():
        cold_result[0] = SpikeSimulator(image).run()
        return cold_result[0]

    instructions, functional_cold = _best_of(repeats, _cold_run)
    digest = _result_digest(program, cold_result[0])
    functional = _measure_warm(program, repeats, digest)
    rocket_interpreted, rocket_cold, rocket, rocket_tiers = _measure_rocket(
        image, program, repeats, digest
    )

    # The gem5 model is measured on a directly-held CPU, as the SE-mode
    # runner builds it.
    gem5 = 0.0
    for _ in range(repeats):
        gem5_cpu = AtomicSimpleCPU(image)
        start = time.perf_counter()
        gem5_result = gem5_cpu.run()
        elapsed = time.perf_counter() - start
        gem5 = max(gem5, gem5_result.instructions_retired / elapsed)
        assert _result_digest(program, gem5_result) == digest, \
            "gem5 atomic run diverged from functional result"

    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "kernel": "software_mul",
        "samples": samples,
        "repeats": repeats,
        "instructions": instructions,
        "instr_per_s": {
            "functional": round(functional),
            "functional_cold": round(functional_cold),
            "rocket": round(rocket),
            "rocket_cold": round(rocket_cold),
            "rocket_interpreted": round(rocket_interpreted),
            "gem5_atomic": round(gem5),
        },
        "rocket_tiers": rocket_tiers,
        "results_sha256": digest,
        "batch_bit_identical": True,  # asserted above, run by run
        "seed_baseline_instr_per_s": dict(SEED_BASELINE),
        "speedup_vs_seed": {
            "functional": round(functional / SEED_BASELINE["functional"], 2),
            "functional_cold": round(
                functional_cold / SEED_BASELINE["functional"], 2
            ),
            "rocket": round(rocket / SEED_BASELINE["rocket"], 2),
            "rocket_cold": round(rocket_cold / SEED_BASELINE["rocket"], 2),
        },
    }


def persist(record: dict, path: str) -> dict:
    """Append ``record`` to the benchmark history file and return the doc."""
    document = {"benchmark": "sim_throughput", "history": []}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                existing = json.load(handle)
            if isinstance(existing.get("history"), list):
                document = existing
        except (json.JSONDecodeError, OSError):
            pass  # corrupt or unreadable history: start fresh
    document["history"].append(record)
    document["latest"] = record
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


def _field(entry: dict, path: str):
    """The value at dotted ``path`` in a record, or None."""
    for key in path.split("."):
        entry = entry.get(key) if isinstance(entry, dict) else None
    return entry


def check_regression(record: dict, baseline_path: str) -> list:
    """Gate a fresh record: same-run rate ratios and exact counts.

    Returns a list of human-readable failures: one for every
    :data:`RATE_RATIOS` entry the record's own rates miss, and one for
    every :data:`DETERMINISTIC_COUNTS` field that differs from the latest
    entry of the ``baseline_path`` history recorded at the same sample
    count (fields that entry lacks are skipped; a missing or malformed
    baseline, or one with no entry at this sample count, gates the ratios
    only).  No absolute instr/s rate is compared: a host's speed drifts,
    and other hosts' entries would say more about those hosts than about
    the engine, while a ratio of two rates measured in the same run does
    not.  A record that lacks one of a ratio's rates (an entry written
    before ``rocket_interpreted`` was recorded) skips that ratio.
    """
    failures = []
    rates = record.get("instr_per_s", {})
    for faster, slower, factor in RATE_RATIOS:
        fast, slow = rates.get(faster), rates.get(slower)
        if fast is None or not slow:
            continue
        if fast < factor * slow:
            failures.append(
                f"{faster}/{slower}: {fast:,.0f} / {slow:,.0f} instr/s is "
                f"{fast / slow:.2f}x, below the required {factor:.1f}x"
            )
    try:
        with open(baseline_path) as handle:
            history = json.load(handle)["history"]
        same_samples = [
            entry for entry in history
            if entry.get("samples") == record.get("samples")
        ]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, AttributeError):
        same_samples = []
    if same_samples:
        latest = same_samples[-1]
        for name in DETERMINISTIC_COUNTS:
            expected = _field(latest, name)
            measured = _field(record, name)
            if expected is not None and measured != expected:
                failures.append(
                    f"{name}: {measured!r} differs from {expected!r} recorded "
                    f"at {latest.get('timestamp')} (re-record the history "
                    f"if a change moves it on purpose)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--samples", type=positive_int, default=None,
        help="operand samples in the kernel run (default: "
             "$REPRO_BENCH_SAMPLES, else 40; paper scale 8000)",
    )
    parser.add_argument(
        "--repeats", type=positive_int, default=3,
        help="timing repetitions; best run is recorded (default 3)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT, help="benchmark history JSON path"
    )
    parser.add_argument(
        "--check-regression", metavar="BASELINE", default=None,
        help="exit non-zero if warm Rocket spans run less than 2x the "
             "interpreted or the cold Rocket rate of the same run, or if "
             "any deterministic count differs from the latest entry of "
             "this BENCH_sim.json at the same sample count (the fresh run "
             "is NOT appended to the baseline file in this mode)",
    )
    args = parser.parse_args(argv)
    if args.samples is None:
        args.samples = samples_from_env(parser, 40)

    record = run_benchmark(args.samples, args.repeats)
    if args.check_regression is not None:
        failures = check_regression(record, args.check_regression)
        rates = record["instr_per_s"]
        print(f"regression check vs {args.check_regression}:")
        print(f"  functional {rates['functional']:,} / "
              f"rocket warm {rates['rocket']:,} "
              f"(cold {rates['rocket_cold']:,}, "
              f"interpreted {rates['rocket_interpreted']:,}) / "
              f"gem5 {rates['gem5_atomic']:,} instr/s")
        for failure in failures:
            print(f"  REGRESSION {failure}")
        if failures:
            return 1
        print("  ok")
        return 0
    persist(record, args.out)

    rates = record["instr_per_s"]
    speedups = record["speedup_vs_seed"]
    rocket_tiers = record["rocket_tiers"]
    print(f"software-multiply kernel, {args.samples} samples "
          f"({record['instructions']} instructions/run)")
    print(f"  functional warm:      {rates['functional']:>12,} instr/s  "
          f"({speedups['functional']:.2f}x vs seed interpreter)")
    print(f"  functional cold:      {rates['functional_cold']:>12,} instr/s  "
          f"({speedups['functional_cold']:.2f}x vs seed interpreter)")
    print(f"  cycle-accurate warm:  {rates['rocket']:>12,} instr/s  "
          f"({speedups['rocket']:.2f}x vs seed interpreter)")
    print(f"  cycle-accurate cold:  {rates['rocket_cold']:>12,} instr/s  "
          f"({speedups['rocket_cold']:.2f}x vs seed interpreter)")
    print(f"  rocket interpreted:   {rates['rocket_interpreted']:>12,} instr/s")
    print(f"  gem5 atomic:          {rates['gem5_atomic']:>12,} instr/s")
    print(f"  rocket timing tier: "
          f"{rocket_tiers['compiled_instructions']:,} compiled / "
          f"{rocket_tiers['interpreted_instructions']:,} interpreted instrs "
          f"across {rocket_tiers['timing_spans']} spans "
          f"(compiled in {rocket_tiers['timing_compile_seconds']}s, "
          f"{rocket_tiers['timing_deopts']} deopts; "
          f"{rocket_tiers['cycles']:,} cycles, "
          f"cold == warm == interpreted, asserted)")
    print(f"  results sha256: {record['results_sha256'][:16]}… "
          f"(cold == warm, asserted)")
    print(f"history -> {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
