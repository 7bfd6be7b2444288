"""Content-addressed result store for campaign cells.

A campaign cell's measurement is fully determined by its inputs: the seed,
the co-design solution (including the resolved accelerator datapath), the
workload or operand-class mix, the interchange format, the operation, the
sample/repetition counts, the Rocket timing configuration, the shard plan —
and the code that implements all of the above.  :func:`cell_key` hashes that
closure canonically; :class:`ResultCache` persists the cell's merged-input
:class:`~repro.core.results.ShardCycleReport` list under the key, so a
repeated request is a dict lookup instead of a simulation.

Key discipline (why this cache may be persisted while
:class:`repro.sim.batch.BatchRunner`'s in-process key may not):

* the BatchRunner key covers only the *program shape* because vectors are
  rebound on every hit — correct for a warm simulator, wrong for stored
  results;
* ``cell_key`` additionally covers everything that selects the vectors
  (seed, workload, operand classes) and everything that turns vectors into
  numbers (Rocket config, shard plan, verification/differential mode) plus
  :func:`code_version`, a fingerprint over every ``repro`` source file —
  editing any simulator/kernel/workload source invalidates the whole store.

The store layout is one JSON document per key under ``<dir>/<key[:2]>/``,
written atomically (temp file + ``os.replace``); corrupt or foreign entries
read as misses.  ``hits``/``misses``/``bypasses`` counters feed the service's
``/stats`` endpoint and ``BENCH_campaign.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile

from repro.core.results import shard_report_from_dict, shard_report_to_dict
from repro.errors import ConfigurationError

#: Bump when the persisted document layout changes (distinct from
#: :func:`code_version`, which tracks the *measuring* code).
SCHEMA_VERSION = 1

#: Cell keys one :class:`ResultCache` remembers (:meth:`~ResultCache.key_for`).
#: A fixed bound, so a long-running service cannot grow the memo without
#: limit.
KEY_MEMO_SIZE = 1024

_CODE_VERSION = None


def code_version(root: str = None) -> str:
    """Fingerprint of every ``.py`` file under the ``repro`` package.

    The hex digest changes whenever any source file changes, so cached
    results can never outlive the code that produced them.  The default
    root's fingerprint is computed once per process.
    """
    global _CODE_VERSION
    if root is None:
        if _CODE_VERSION is not None:
            return _CODE_VERSION
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        _CODE_VERSION = _fingerprint_tree(root)
        return _CODE_VERSION
    return _fingerprint_tree(root)


def _fingerprint_tree(root: str) -> str:
    digest = hashlib.sha256()
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                sources.append((os.path.relpath(path, root), path))
    for relpath, path in sorted(sources):
        digest.update(relpath.encode())
        digest.update(b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\0")
    return digest.hexdigest()


def _jsonable(value):
    """Canonical JSON-ready form of a key component."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return value


def cell_key_payload(cell, shards_per_cell: int = 1, version: str = None) -> dict:
    """The canonical (pre-hash) key document of one campaign cell.

    Exposed separately so tests and operators can see exactly which fields
    participate in the content address (also documented in docs/service.md).
    ``operand_classes`` is recorded only when no workload is set — a
    workload fully replaces the class mix, so including the (ignored)
    classes would split identical measurements across keys.
    """
    from repro.core.campaign import plan_shards

    accelerator = cell.solution.resolve_accelerator_config(cell.fmt)
    return {
        "schema": SCHEMA_VERSION,
        "code_version": version if version is not None else code_version(),
        "seed": cell.seed,
        "num_samples": cell.num_samples,
        "repetitions": cell.repetitions,
        "solution": {
            "name": cell.solution.name,
            "kind": cell.solution.kind,
            "verifiable": cell.solution.verifiable,
            "accelerator": _jsonable(accelerator),
        },
        "workload": cell.workload,
        "operand_classes": (
            None if cell.workload is not None else list(cell.operand_classes)
        ),
        "fmt": cell.fmt,
        "op": cell.op,
        "verify_functionally": cell.verify_functionally,
        "differential": cell.differential,
        "rocket": _jsonable(cell.rocket_config),
        "shard_plan": [list(span) for span in
                       plan_shards(cell.num_samples, shards_per_cell)],
    }


def cell_key(cell, shards_per_cell: int = 1, version: str = None) -> str:
    """Content address (sha256 hex) of one campaign cell's measurement."""
    payload = cell_key_payload(cell, shards_per_cell, version)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Persistent key -> ``[ShardCycleReport, ...]`` store (see module docs)."""

    def __init__(self, path: str, version: str = None) -> None:
        if not path:
            raise ConfigurationError("ResultCache needs a directory path")
        self.path = os.path.abspath(path)
        os.makedirs(self.path, exist_ok=True)
        self.version = version if version is not None else code_version()
        # Cells and everything they hold are frozen and hashable, and the
        # version is fixed per cache, so a key is derived once per
        # (cell, shards_per_cell).
        self._key_memo = functools.lru_cache(maxsize=KEY_MEMO_SIZE)(
            functools.partial(cell_key, version=self.version)
        )
        #: Counters over this handle's lifetime (feed ``/stats`` + benchmarks).
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    # ------------------------------------------------------------------ keys
    def key_for(self, cell, shards_per_cell: int = 1) -> str:
        """:func:`cell_key` under this cache's code version (memoized)."""
        return self._key_memo(cell, shards_per_cell)

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.path, key[:2], f"{key}.json")

    # ----------------------------------------------------------------- store
    def load(self, key: str, count: bool = True):
        """The cached shard reports for ``key``, or ``None`` on a miss.

        Anything unreadable — missing, corrupt, written under a different
        schema or key — is a miss; the cache never raises on bad entries.
        """
        try:
            with open(self._entry_path(key)) as handle:
                document = json.load(handle)
            if document.get("schema") != SCHEMA_VERSION or document.get("key") != key:
                raise ValueError("foreign cache entry")
            shards = [
                shard_report_from_dict(data) for data in document["shards"]
            ]
        except (OSError, ValueError, TypeError, KeyError, AttributeError):
            if count:
                self.misses += 1
            return None
        if count:
            self.hits += 1
        return shards

    def store(self, key: str, shards, label: str = "") -> None:
        """Persist one cell's shard reports atomically under ``key``."""
        shards = sorted(shards, key=lambda s: (s.start, s.shard_index))
        document = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "code_version": self.version,
            "label": label,
            "shards": [shard_report_to_dict(shard) for shard in shards],
        }
        directory = os.path.dirname(self._entry_path(key))
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(document, handle)
            os.replace(temp_path, self._entry_path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def contains(self, key: str) -> bool:
        return os.path.exists(self._entry_path(key))

    def bypass(self, cells: int = 1) -> None:
        """Record cells that skipped the cache (per-request opt-out)."""
        self.bypasses += cells

    def __len__(self) -> int:
        count = 0
        for dirpath, _dirnames, filenames in os.walk(self.path):
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        return {
            "path": self.path,
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "hit_rate": round(self.hit_rate, 6),
            "code_version": self.version,
        }
