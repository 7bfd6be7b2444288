"""Asyncio campaign job engine: decompose, satisfy from cache, fan out, merge.

The engine is the service half of docs/service.md.  A submitted campaign
spec is decomposed into :class:`~repro.core.campaign.CampaignCell`s; every
cell is content-addressed through :mod:`repro.service.cache`:

* **cached** cells are loaded from the store inside
  :meth:`CampaignService.submit` — a job whose every cell is cached is
  merged and done before ``submit`` returns, so ``POST /submit`` answers
  it with the result;
* **in-flight** cells (an identical cell already being computed for another
  job) coalesce onto the first job's future — concurrent duplicate
  submissions cost one computation;
* **novel** cells go through the same plan → compute → store steps
  (:class:`~repro.core.campaign.CampaignRun`) as ``run_campaign``, on a
  worker pool the engine keeps across jobs; a worker process that dies
  fails its job naming a shard it left pending, and the broken pool is
  replaced.

Each cell's load is attempted once per job.  All shard reports — cached,
coalesced and fresh alike — merge through
:func:`repro.core.results.merge_shard_reports`, so a fully cache-hit job's
:meth:`~repro.core.campaign.CampaignResult.to_summary` is bit-identical to
the cold run's (modulo the request's own ``wall_seconds``; compare with
:func:`comparable_summary`).

Jobs expose a status snapshot and an append-only NDJSON-able event list that
:mod:`repro.service.server` streams; every mutation happens on the event
loop, so no locks are needed beyond the executor boundary.  The newest
:data:`FINISHED_JOBS_KEPT` finished jobs stay queryable; older ones are
dropped, and a job in flight never is.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.campaign import (
    CampaignResult,
    CampaignRun,
    grid_cells,
    lost_shard,
    process_pool,
)
from repro.errors import ConfigurationError
from repro.testgen.config import SolutionKind
from repro.verification.database import OperandClass

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: Finished jobs kept for ``/status``, ``/result`` and ``/stream``; the
#: oldest finished job beyond this many is dropped.
FINISHED_JOBS_KEPT = 1024

_SPEC_FIELDS = frozenset({
    "samples", "seed", "repetitions", "kinds", "workload", "workloads",
    "fmt", "op", "classes", "verify", "differential", "shards_per_cell",
    "cache", "label",
})


def _spec_int(spec: dict, name: str, default: int, minimum: int = None) -> int:
    """Integer field ``name`` of a submitted spec (a JSON integer)."""
    value = spec.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"'{name}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"'{name}' must be at least {minimum}, got {value}")
    return value


def _spec_bool(spec: dict, name: str, default: bool) -> bool:
    """Boolean field ``name`` of a submitted spec (a JSON boolean)."""
    value = spec.get(name, default)
    if not isinstance(value, bool):
        raise ConfigurationError(f"'{name}' must be true or false, got {value!r}")
    return value


def _spec_names(spec: dict, name: str, known) -> tuple:
    """List-of-names field ``name`` of a submitted spec, each one of ``known``."""
    values = spec[name]
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ConfigurationError(f"'{name}' must be a list of names, got {values!r}")
    unknown = [v for v in values if v not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown '{name}' entries {unknown} (choose from {', '.join(known)})"
        )
    return tuple(values)


def cells_from_spec(spec: dict) -> list:
    """Campaign cells for one submitted job spec: a one-op, one-format grid.

    The spec is the JSON body of ``POST /submit`` (fields documented in
    docs/service.md); unknown fields are rejected so a typo cannot silently
    run a different campaign than the caller meant to key.
    """
    if not isinstance(spec, dict):
        raise ConfigurationError("campaign spec must be a JSON object")
    unknown = sorted(set(spec) - _SPEC_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown campaign spec field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(_SPEC_FIELDS))})"
        )
    workloads = spec.get("workloads")
    if spec.get("workload") is not None:
        if workloads is not None:
            raise ConfigurationError(
                "'workload' and 'workloads' are mutually exclusive: set one"
            )
        workloads = [spec["workload"]]
    if workloads is not None and not isinstance(workloads, (list, tuple)):
        raise ConfigurationError("'workloads' must be a list of workload names")
    classes = spec.get("classes")
    if workloads and classes is not None:
        raise ConfigurationError(
            "'classes' and 'workloads' are mutually exclusive: a "
            "workload defines its own operand distribution"
        )
    grid = dict(
        num_samples=_spec_int(spec, "samples", 100, minimum=1),
        ops=(spec.get("op", "multiply"),),
        formats=(spec.get("fmt", "decimal64"),),
        workloads=tuple(workloads) if workloads else (None,),
        repetitions=_spec_int(spec, "repetitions", 1, minimum=1),
        seed=_spec_int(spec, "seed", 2018),
        operand_classes=(
            _spec_names(spec, "classes", OperandClass.ALL)
            if classes is not None else OperandClass.TABLE_IV_MIX
        ),
        verify_functionally=_spec_bool(spec, "verify", True),
        differential=_spec_bool(spec, "differential", False),
    )
    if spec.get("kinds") is not None:
        kinds = _spec_names(spec, "kinds", SolutionKind.ALL)
        if kinds:
            grid["solutions"] = kinds
    return grid_cells(**grid)


def comparable_summary(summary: dict) -> dict:
    """``to_summary()`` minus the request's own wall clock.

    Everything else — including per-cell ``sim_wall_seconds``, which cached
    shards carry from the run that actually computed them — must be
    bit-identical between a cold run and a cache-hit rerun.
    """
    summary = dict(summary)
    summary.pop("wall_seconds", None)
    return summary


@dataclass
class Job:
    """One submitted campaign and everything observable about it."""

    job_id: str
    spec: dict
    cells: list
    shards_per_cell: int
    use_cache: bool = True
    status: str = QUEUED
    error: str = ""
    result: CampaignResult = None
    summary: dict = None
    events: list = field(default_factory=list)
    cells_cached: int = 0
    cells_coalesced: int = 0
    cells_computed: int = 0
    shards_done: int = 0
    shards_total: int = 0
    wall_seconds: float = 0.0
    created_monotonic: float = field(default_factory=time.monotonic)
    _changed: object = None  # asyncio.Condition, created on the loop
    _task: object = None     # the background task computing missed cells

    def to_status(self) -> dict:
        return {
            "job": self.job_id,
            "status": self.status,
            "label": self.spec.get("label", ""),
            "cells": len(self.cells),
            "cells_cached": self.cells_cached,
            "cells_coalesced": self.cells_coalesced,
            "cells_computed": self.cells_computed,
            "shards_total": self.shards_total,
            "shards_done": self.shards_done,
            "events": len(self.events),
            "error": self.error,
            "wall_seconds": round(self.wall_seconds, 4),
        }

    @property
    def finished(self) -> bool:
        return self.status in (DONE, FAILED)


class CampaignService:
    """Long-running engine behind ``python -m repro.serve`` (module docs)."""

    def __init__(self, cache, workers: int = 1, shards_per_cell: int = 1,
                 mp_start_method: str = None) -> None:
        if shards_per_cell < 1:
            raise ConfigurationError("shards_per_cell must be at least 1")
        self.cache = cache
        self.workers = max(1, int(workers or 1))
        self.shards_per_cell = shards_per_cell
        self.mp_start_method = mp_start_method
        self._jobs = {}
        self._finished = collections.deque()  # finished job ids, oldest first
        self._job_counts = collections.Counter()  # finished jobs by status
        self._inflight = {}          # cell key -> asyncio.Future([shards])
        self._executor = None
        self._ids = itertools.count(1)
        self._started_monotonic = time.monotonic()
        self._busy_seconds = 0.0
        self.shards_computed = 0

    # ------------------------------------------------------------- lifecycle
    def _ensure_executor(self):
        if self._executor is None:
            self._executor = (
                process_pool(self.workers, self.mp_start_method)
                if self.workers > 1 else ThreadPoolExecutor(max_workers=1)
            )
        return self._executor

    def _lost(self, executor, cell, start: int, stop: int, error):
        """Drop a broken pool, so the next job gets a fresh one."""
        if self._executor is executor:
            self._executor = None
            executor.shutdown(wait=False)
        return lost_shard(cell, start, stop, error)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ----------------------------------------------------------------- jobs
    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown job {job_id!r} (the service keeps the newest "
                f"{FINISHED_JOBS_KEPT} finished jobs)"
            ) from None

    @property
    def jobs(self) -> dict:
        return dict(self._jobs)

    @property
    def in_flight(self) -> int:
        return sum(1 for job in self._jobs.values() if not job.finished)

    def stats(self) -> dict:
        uptime = time.monotonic() - self._started_monotonic
        capacity = uptime * self.workers
        in_flight = self.in_flight
        done, failed = self._job_counts[DONE], self._job_counts[FAILED]
        return {
            "workers": self.workers,
            "shards_per_cell": self.shards_per_cell,
            "uptime_seconds": round(uptime, 3),
            "jobs": {
                "total": in_flight + done + failed,
                "in_flight": in_flight,
                "done": done,
                "failed": failed,
            },
            "shards_computed": self.shards_computed,
            "busy_seconds": round(self._busy_seconds, 3),
            "worker_utilization": round(
                min(1.0, self._busy_seconds / capacity) if capacity else 0.0, 6
            ),
            "cache": self.cache.stats(),
        }

    async def submit(self, spec: dict) -> Job:
        """Validate ``spec``, register a job and serve its cached cells.

        With the cache on, every cell not in flight for another job is
        loaded here.  If all of them load, the job is merged and done when
        this returns; otherwise a background task coalesces onto or
        computes the rest.
        """
        cells = cells_from_spec(spec)
        shards_per_cell = _spec_int(
            spec, "shards_per_cell", self.shards_per_cell, minimum=1
        )
        use_cache = _spec_bool(spec, "cache", True)
        run = CampaignRun(cells, shards_per_cell, self.cache)
        job = Job(
            job_id=f"job-{next(self._ids)}",
            spec=dict(spec),
            cells=cells,
            shards_per_cell=shards_per_cell,
            use_cache=use_cache,
        )
        job.shards_total = sum(len(plan) for plan in run.plans)
        job._changed = asyncio.Condition()
        self._jobs[job.job_id] = job
        await self._emit(job, "submitted", cells=len(job.cells),
                         shards=job.shards_total)
        if not use_cache:
            self.cache.bypass(len(cells))
        pending = {}             # cell id -> in-flight future or None
        for cell_id, key in enumerate(run.keys):
            inflight = self._inflight.get(key) if use_cache else None
            if inflight is None and use_cache and run.load(cell_id):
                job.cells_cached += 1
                await self._cell_ended(job, run, cell_id, "cell_cached")
            else:
                pending[cell_id] = inflight
        if pending:
            job._task = asyncio.ensure_future(self._run_job(job, run, pending))
        else:
            await self._run_job(job, run, pending)
        return job

    async def wait(self, job: Job) -> Job:
        """Block until ``job`` finishes (used by tests and the smoke runner)."""
        async with job._changed:
            while not job.finished:
                await job._changed.wait()
        return job

    # ----------------------------------------------------------- event plumbing
    async def _emit(self, job: Job, event: str, **fields) -> None:
        record = {
            "event": event,
            "job": job.job_id,
            "seq": len(job.events),
            "t": round(time.monotonic() - job.created_monotonic, 4),
        }
        record.update(fields)
        job.events.append(record)
        async with job._changed:
            job._changed.notify_all()

    async def events(self, job: Job, from_seq: int = 0):
        """Async iterator over job events; ends when the job finishes."""
        index = from_seq
        while True:
            while index < len(job.events):
                yield job.events[index]
                index += 1
            if job.finished:
                return
            async with job._changed:
                if index >= len(job.events) and not job.finished:
                    await job._changed.wait()

    # -------------------------------------------------------------- execution
    async def _run_job(self, job: Job, run, pending: dict) -> None:
        """Coalesce onto or compute the cells the cache did not serve
        (``pending``), then merge every cell into the job's result."""
        job.status = RUNNING
        started = time.monotonic()
        try:
            outcomes = await asyncio.gather(*(
                self._cell_shards(job, run, cell_id, inflight)
                for cell_id, inflight in pending.items()
            ), return_exceptions=True)
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
            job.result = run.result(self.workers)
            job.wall_seconds = job.result.wall_seconds
            job.summary = job.result.to_summary()
            job.status = DONE
            await self._emit(
                job, "done",
                cells_cached=job.cells_cached,
                cells_coalesced=job.cells_coalesced,
                cells_computed=job.cells_computed,
                wall_seconds=round(job.wall_seconds, 4),
            )
        except Exception as error:  # surfaced through /status + /result
            job.wall_seconds = time.monotonic() - started
            job.error = f"{type(error).__name__}: {error}"
            job.status = FAILED
            await self._emit(job, "failed", error=job.error)
        self._retire(job)

    def _retire(self, job: Job) -> None:
        """Count a finished job; drop the oldest beyond the kept bound."""
        self._job_counts[job.status] += 1
        self._finished.append(job.job_id)
        while len(self._finished) > FINISHED_JOBS_KEPT:
            del self._jobs[self._finished.popleft()]

    async def _cell_shards(self, job: Job, run, cell_id: int,
                           inflight) -> None:
        """Coalesce onto (``inflight`` or another job's future) or compute
        one cell, and report which."""
        if inflight is None and job.use_cache:
            inflight = self._inflight.get(run.keys[cell_id])
        if inflight is not None:
            run.shards[cell_id] = await asyncio.shield(inflight)
            job.cells_coalesced += 1
            await self._cell_ended(job, run, cell_id, "cell_coalesced")
        else:
            await self._compute(job, run, cell_id)
            job.cells_computed += 1
            await self._cell_ended(job, run, cell_id, "cell_done")

    async def _cell_ended(self, job: Job, run, cell_id: int,
                          event: str) -> None:
        shards = len(run.shards[cell_id])
        if event != "cell_done":  # computed shards were counted one by one
            job.shards_done += shards
        await self._emit(job, event, cell=run.cells[cell_id].label,
                         key=run.keys[cell_id], shards=shards)

    async def _compute(self, job: Job, run, cell_id: int) -> None:
        """Shard one cell onto the pool; with the cache on, concurrent jobs
        coalesce onto it and it is stored."""
        loop = asyncio.get_running_loop()
        key, cell = run.keys[cell_id], run.cells[cell_id]
        inflight = loop.create_future()
        if job.use_cache:
            self._inflight[key] = inflight
        try:
            executor = self._ensure_executor()
            try:
                vectors = await loop.run_in_executor(
                    executor, cell.generate_vectors
                )
                submitted = run.submit(executor, cell_id, vectors)
            except BrokenExecutor as error:
                raise self._lost(executor, cell, 0, cell.num_samples,
                                 error) from error
            shards = await asyncio.gather(*(
                self._run_shard(job, executor, cell, *shard)
                for shard in submitted
            ))
            run.shards[cell_id] = shards
            if job.use_cache:
                run.store(cell_id)
            inflight.set_result(shards)
        except BaseException as error:
            inflight.set_exception(error)
            # A coalesced awaiter consumes the exception; nobody else
            # should trip "exception was never retrieved".
            inflight.exception()
            raise
        finally:
            if self._inflight.get(key) is inflight:
                del self._inflight[key]

    async def _run_shard(self, job: Job, executor, cell, future, start: int,
                         stop: int):
        try:
            report, busy_seconds = await asyncio.wrap_future(future)
        except BrokenExecutor as error:
            raise self._lost(executor, cell, start, stop, error) from error
        self._busy_seconds += busy_seconds
        self.shards_computed += 1
        job.shards_done += 1
        await self._emit(
            job, "shard_done", cell=cell.label, shard=report.shard_index,
            start=report.start, stop=report.stop,
            sim_wall_seconds=round(report.sim_wall_seconds, 4),
        )
        return report
