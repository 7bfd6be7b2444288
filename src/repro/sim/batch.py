"""Batch-vector execution: one linked program and warm models per shape.

Building a test program (assemble + link), constructing a simulator and
re-decoding its code costs far more than actually running
a small vector shard — at campaign scale this per-shard cold start would
dominate host time.  ``BatchRunner`` keeps one LRU entry per *program
shape* (solution x format x operation x sample count x repetitions:
everything that determines the generated text).  An entry holds the shape's
linked program, its SPIKE-style simulator and one Rocket emulator per
:class:`~repro.rocket.config.RocketConfig`, each model created on first
use, so a shard that never runs the functional model never builds one.

:meth:`~BatchRunner.acquire` (functional) and
:meth:`~BatchRunner.acquire_timed` (cycle-accurate) share one bind step:

* the first use of a shape builds and links its program — once, for both
  models;
* a vector set that differs (by value) from the entry's current one is
  re-encoded once and patched into the program's image
  (:meth:`~repro.testgen.generator.GeneratedProgram.rebind`); the same
  vectors acquired again (the functional then the timed run of one shard)
  reuse the bound program as it is.

A model that has already run is restored before it is handed out again: the
bound image's operand and result window is written into its memory and
``reset()`` rewinds it.  The simulator's reset keeps everything its
executor learned (decoded instructions, their closures, superblocks); the
emulator's reset also restores cold caches and reseeded replacement PRNGs —
cold caches are part of the paper's measurement — so only its timing
compiler (decoded code, compiled spans) stays warm.

Bit-identity with a cold run is a hard invariant, not a best effort: the
bound image is byte-identical to a fresh build over the same vectors, a
restored model's memory matches a fresh load of that image, and the warm
closures read registers and memory only when they run, so reusing them is
architecturally invisible.  A fresh ``BatchRunner`` *is* the cold path, and
``tests/test_batch.py`` and ``tests/test_timing_tier.py`` lock warm reuse
down against it sample by sample.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.spike import SpikeSimulator

#: Default cap on cached program shapes; beyond it the least recently used
#: shape (its program and models) is dropped.  A Table IV campaign needs
#: three (one per solution kind); format/workload sweeps need one per (kind
#: x format x operation x shard size).
DEFAULT_MAX_ENTRIES = 8


class _Shape:
    """One program shape's cached state: the bound program and its models."""

    __slots__ = ("program", "simulator", "emulators")

    def __init__(self, program) -> None:
        self.program = program          # bound to the latest vector set
        self.simulator = None           # SpikeSimulator, made on first use
        self.emulators = {}             # RocketConfig -> RocketEmulator


def _restore(model, program) -> None:
    """Reload ``program``'s operand/result window into a used model; rewind it.

    The window runs from the operands to the end of the result buffers, so
    one write both rebinds the vectors and zeroes the outputs — exactly the
    freshly-loaded data segment.
    """
    image = program.image
    start = image.symbol("operands")
    scratch, size = program.scratch_span()
    stop = scratch + size
    for base, data in image.segments.values():
        if base <= start and stop <= base + len(data):
            model.memory.write_bytes(start, data[start - base:stop - base])
            model.reset()
            return
    raise ConfigurationError("operand region not found in any image segment")


class BatchRunner:
    """Program-and-model cache keyed by program shape (see module docs)."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        # A cap below one would evict every entry right after inserting it:
        # each acquire would rebuild cold while hits/misses still report a
        # functioning cache.  Reject it up front.
        if max_entries < 1:
            raise ConfigurationError(
                f"BatchRunner max_entries must be at least 1, got {max_entries}"
            )
        self._entries = {}
        self.max_entries = max_entries
        #: Model statistics (exposed for benchmarks and tests): functional
        #: simulators reused/created, and the same for Rocket emulators.
        self.hits = 0
        self.misses = 0
        self.timed_hits = 0
        self.timed_misses = 0

    @staticmethod
    def _key(solution, config) -> tuple:
        # Everything that determines the generated text + the simulator
        # construction.  ``config.workload``, ``config.operand_classes`` and
        # ``config.seed`` are deliberately absent: they only select *which
        # vectors are drawn*, never the emitted kernel/harness, and vectors
        # are always rebound on a hit — tests/test_batch.py
        # (``test_key_omits_vector_provenance_safely``) pins that a warm hit
        # across different workloads/seeds still yields an image
        # byte-identical to a cold build.  Anything persisted across
        # processes must not inherit this shape-only key: the service's
        # ``repro.service.cache.cell_key`` hashes the full provenance.
        return (
            solution.name,
            solution.kind,
            config.fmt,
            config.operation,
            config.num_samples,
            config.repetitions,
        )

    def _bind(self, solution, config, vectors):
        """The shape's entry, its program bound to ``vectors``."""
        from repro.testgen.generator import build_test_program

        vectors = list(vectors)
        key = self._key(solution, config)
        shape = self._entries.pop(key, None)
        if shape is None:
            shape = _Shape(build_test_program(config, vectors=vectors))
        elif shape.program.vectors != vectors:
            shape.program = shape.program.rebind(vectors)
        # Reinsert (LRU: dicts iterate in insertion order) and evict.
        self._entries[key] = shape
        while len(self._entries) > self.max_entries:
            del self._entries[next(iter(self._entries))]
        return shape

    def acquire(self, solution, config, vectors) -> tuple:
        """``(program, simulator)`` ready to run ``vectors`` functionally.

        The program's image is byte-identical to a cold build over
        ``vectors``; the simulator is the shape's warm one, restored and
        rewound, or a fresh one on the shape's first functional use.
        """
        shape = self._bind(solution, config, vectors)
        program, simulator = shape.program, shape.simulator
        if simulator is None:
            self.misses += 1
            simulator = shape.simulator = SpikeSimulator(
                program.image, accelerator=solution.make_accelerator(config.fmt)
            )
        else:
            self.hits += 1
            _restore(simulator, program)
        return program, simulator

    def acquire_timed(self, solution, config, vectors, rocket_config=None) -> tuple:
        """``(program, RocketEmulator)`` ready for a timed run of ``vectors``.

        The cycle-accurate counterpart of :meth:`acquire`, with one emulator
        per shape and ``rocket_config`` (different cache geometries compile
        different spans).  A reused emulator's reset restores cold caches,
        so its cycle counts are bit-identical to a cold construction over
        the same image while skipping the decode and span-compile work.
        """
        from repro.rocket.config import RocketConfig
        from repro.rocket.core import RocketEmulator

        if rocket_config is None:
            rocket_config = RocketConfig()
        shape = self._bind(solution, config, vectors)
        program = shape.program
        emulator = shape.emulators.get(rocket_config)
        if emulator is None:
            self.timed_misses += 1
            emulator = shape.emulators[rocket_config] = RocketEmulator(
                program.image,
                accelerator=solution.make_accelerator(config.fmt),
                config=rocket_config,
            )
        else:
            self.timed_hits += 1
            _restore(emulator, program)
        return program, emulator

    def run_functional(self, solution, config, vectors) -> tuple:
        """``(program, SimulationResult)`` for one batch of vectors.

        Convenience wrapper over :meth:`acquire` + ``simulator.run()`` for
        callers that only need the functional result (benchmarks, tests).
        """
        program, simulator = self.acquire(solution, config, vectors)
        return program, simulator.run()

    def clear(self) -> None:
        """Drop every cached shape and reset the hit/miss statistics.

        Benchmarks reuse one runner across phases; stale counters from a
        previous phase would otherwise leak into the next phase's hit-rate
        arithmetic.  Use :meth:`reset_stats` to zero the counters without
        dropping the warm models.
        """
        self._entries.clear()
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters while keeping the cached shapes."""
        self.hits = 0
        self.misses = 0
        self.timed_hits = 0
        self.timed_misses = 0
