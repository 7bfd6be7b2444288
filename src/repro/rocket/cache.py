"""Set-associative L1 cache model with random (or LRU) replacement.

The paper points out that Rocket's cache *random replacement policy* makes
cycle counts nondeterministic from the program's point of view, which is why
the evaluation averages over many samples.  The model reproduces that
behaviour with a seeded PRNG: one run is reproducible, but cycle counts vary
across samples as lines are evicted unpredictably.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.rocket.config import CacheConfig


@dataclass
class CacheStats:
    """Hit/miss counters of one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A blocking, write-allocate, set-associative cache."""

    def __init__(self, config: CacheConfig, rng: random.Random = None) -> None:
        self.config = config
        self.rng = rng if rng is not None else random.Random(0)
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._index_mask = config.sets - 1
        self._index_bits = self._index_mask.bit_length()
        # sets -> list of tags (ways); None means invalid.
        self._tags = [[None] * config.ways for _ in range(config.sets)]
        # LRU bookkeeping (only maintained when replacement == "lru"; the
        # random policy never reads it, so skipping the updates changes no
        # observable behaviour and keeps the hit path tight).
        self._lru_mode = config.replacement == "lru"
        self._lru = [[0] * config.ways for _ in range(config.sets)]
        self._tick = 0
        self.stats = CacheStats()

    def access(self, address: int, is_write: bool = False) -> int:
        """Access one address; return the extra stall cycles (0 on a hit)."""
        stats = self.stats
        stats.accesses += 1
        line = address >> self._offset_bits
        index = line & self._index_mask
        tag = line >> self._index_bits
        ways = self._tags[index]
        if tag in ways:
            stats.hits += 1
            if self._lru_mode:
                self._tick += 1
                self._lru[index][ways.index(tag)] = self._tick
            return 0
        stats.misses += 1
        if not self._lru_mode:
            return self.fill(ways, tag)
        # LRU miss: allocate into an invalid way if any, otherwise evict the
        # least recently used one.
        lru = self._lru[index]
        victim = ways.index(None) if None in ways else lru.index(min(lru))
        ways[victim] = tag
        self._tick += 1
        lru[victim] = self._tick
        return self.config.miss_penalty_cycles

    def fill(self, ways: list, tag: int) -> int:
        """Allocate ``tag`` into one set's ``ways`` after a random-policy miss.

        Takes the first invalid way, otherwise evicts a victim drawn from
        the cache's PRNG, and returns the miss penalty in cycles.  Every
        random-replacement miss goes through here — :meth:`access`, the
        interpreted loop of :meth:`repro.rocket.core.RocketEmulator.run` and
        the compiled timing spans — so all three draw victims in one order.
        Statistics are the caller's to count.
        """
        try:
            victim = ways.index(None)
        except ValueError:
            victim = self.rng.randrange(self.config.ways)
        ways[victim] = tag
        return self.config.miss_penalty_cycles

    def flush(self) -> None:
        """Invalidate every line (keeps statistics).

        Lines are cleared *in place*: the compiled timing tier
        (:mod:`repro.rocket.timing`) binds the per-set way lists directly
        into generated code, so the list objects must keep their identity
        across a flush.
        """
        ways = self.config.ways
        for tags in self._tags:
            tags[:] = [None] * ways

    def reset(self) -> None:
        """Restore construction state in place: cold lines, zeroed stats.

        Used by :meth:`repro.rocket.core.RocketEmulator.reset` so a warm
        rerun starts from exactly the cold-cache state the paper measures.
        The PRNG is deliberately *not* reseeded here — its seeding order is
        owned by the emulator (one parent stream seeds both caches).
        """
        self.flush()
        ways = self.config.ways
        for lru in self._lru:
            lru[:] = [0] * ways
        self._tick = 0
        stats = self.stats
        stats.accesses = 0
        stats.hits = 0
        stats.misses = 0
