"""Sharded multiprocess campaign engine for paper-scale evaluations.

The paper evaluates with 8,000 constrained-random samples per table; the
serial :class:`~repro.core.evaluation.EvaluationFramework` runs every
solution in one process, one simulator run after another.  The campaign
engine decomposes an evaluation into independent units and fans them out
over worker processes:

* a **cell** is one (operation × format × workload-or-operand-mix ×
  co-design solution × RocketConfig) combination with its sample count and
  seed; :func:`grid_cells` builds every campaign — a Table IV, a
  ``--workload``/``--format``/``--op`` sweep or a pipeline design-space
  study — as the product of those axes;
* each cell's shared vector set is generated once from the seed
  (bit-identical to the serial framework's) and **sharded** into contiguous
  slices; a shard is the unit of work: the worker builds and links the
  shard's test program once, runs SPIKE-style verification and the Rocket
  measurement, and returns a picklable :class:`ShardCycleReport`;
* shards are merged (order-independently, keyed by sample range) through
  :func:`repro.core.results.merge_shard_reports` — the same accounting the
  serial path uses.

Determinism guarantees:

* the **shard plan is a pure function** of (num_samples, shards_per_cell),
  so a fixed plan produces the same merged report for any worker count,
  any completion order, and any multiprocessing start method;
* with ``shards_per_cell=1`` each cell is measured in a single simulator
  run, exactly like the serial framework — the merged report is
  **bit-identical** to ``EvaluationFramework.evaluate_table_iv`` at the
  same seed (parallelism then comes from running cells concurrently);
* with ``shards_per_cell>1`` each shard starts with cold caches and a fresh
  replacement PRNG, which perturbs a handful of boundary samples — results
  are still exactly reproducible for the same plan, but differ slightly
  from the single-shard measurement (see docs/campaigns.md).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.core.evaluation import run_solution_shard
from repro.core.results import (
    SolutionCycleReport,
    TableIVReport,
    merge_shard_reports,
)
from repro.core.solution import (
    CoDesignSolution,
    microarchitecture_variants,
    standard_solutions,
)
from repro.errors import CampaignError, ConfigurationError, DecimalError
from repro.rocket.config import RocketConfig
from repro.testgen.config import SolutionKind
from repro.verification.database import OperandClass

#: The grouping axes of a campaign grid (attribute -> name), outermost
#: first: cells, :meth:`CampaignResult.group` keys and rendered tables all
#: follow this order.
AXES = {"op": "operation", "fmt": "format", "workload": "workload"}

#: The paper's Table IV rows, in its order.
TABLE_IV_KINDS = (
    SolutionKind.METHOD1,
    SolutionKind.SOFTWARE,
    SolutionKind.METHOD1_DUMMY,
)


@dataclass(frozen=True)
class CampaignCell:
    """One evaluation cell: solution × operand mix × core configuration."""

    solution: CoDesignSolution
    num_samples: int
    operand_classes: tuple = OperandClass.TABLE_IV_MIX
    repetitions: int = 1
    seed: int = 2018
    rocket_config: RocketConfig = field(default_factory=RocketConfig)
    verify_functionally: bool = True
    label: str = ""
    #: Registered workload name; when set, the cell's vectors come from the
    #: workload registry (``operand_classes`` is then ignored) and campaign
    #: reports can be grouped per workload.
    workload: str = None
    #: Differential cell: co-simulate spike/rocket/gem5 over every shard,
    #: check with the dual oracle, and record divergences in the merged
    #: report instead of raising (see docs/verification.md).
    differential: bool = False
    #: Interchange format the cell evaluates (a first-class sweep axis:
    #: selects the kernels, accelerator sizing, operand distributions and
    #: oracle contexts — see docs/formats.md).
    fmt: str = "decimal64"
    #: Decimal operation the cell evaluates (the second first-class sweep
    #: axis: selects the kernels, the vector shape — pairs vs fma triples —
    #: and the oracle operation; see docs/operations.md).
    op: str = "multiply"

    def __post_init__(self) -> None:
        from repro.decnumber.formats import resolve_format_name
        from repro.decnumber.operations import resolve_operation_name

        if self.num_samples < 1:
            raise ConfigurationError("cell num_samples must be at least 1")
        try:
            object.__setattr__(self, "fmt", resolve_format_name(self.fmt))
            object.__setattr__(self, "op", resolve_operation_name(self.op))
        except DecimalError as error:
            raise ConfigurationError(str(error)) from None
        if self.workload is not None:
            from repro.workloads import get_workload

            workload = get_workload(self.workload)  # raises on unknown names
            if not workload.supports_format(self.fmt):
                raise ConfigurationError(
                    f"workload {self.workload!r} does not support format "
                    f"{self.fmt!r} (declares {workload.formats})"
                )
            if not workload.supports_operation(self.op):
                raise ConfigurationError(
                    f"workload {self.workload!r} does not support operation "
                    f"{self.op!r} (declares {workload.operations}); see "
                    "docs/operations.md"
                )
        if not self.label:
            label = self.solution.kind
            if self.workload is not None:
                label = f"{self.solution.kind} @ {self.workload}"
            if self.op != "multiply":
                label = f"{label} ({self.op})"
            if self.fmt != "decimal64":
                label = f"{label} [{self.fmt}]"
            if self.differential:
                label = f"{label} [diff]"
            object.__setattr__(self, "label", label)

    def generate_vectors(self) -> list:
        """The cell's full vector set — identical to the serial framework's."""
        from repro.testgen.generator import draw_vectors

        return draw_vectors(
            self.num_samples,
            self.seed,
            operand_classes=self.operand_classes,
            workload=self.workload,
            fmt=self.fmt,
            operation=self.op,
        )


def plan_shards(num_samples: int, shards: int) -> list:
    """Split ``num_samples`` into ``shards`` contiguous (start, stop) slices.

    The plan is deterministic and depends only on its arguments: the first
    ``num_samples % shards`` shards are one sample longer.  Empty slices
    (more shards than samples) are dropped.
    """
    if shards < 1:
        raise ConfigurationError("shards_per_cell must be at least 1")
    shards = min(shards, num_samples)
    base, extra = divmod(num_samples, shards)
    plan = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        plan.append((start, stop))
        start = stop
    return plan


def workload_fits(workload, ops, formats) -> bool:
    """Whether ``workload`` declares at least one (operation, format) pair."""
    return any(
        workload.supports_operation(op) and workload.supports_format(fmt)
        for op in ops
        for fmt in formats
    )


def grid_cells(
    num_samples: int = 100,
    ops=("multiply",),
    formats=("decimal64",),
    workloads=(None,),
    solutions=TABLE_IV_KINDS,
    rocket_configs=None,
    repetitions: int = 1,
    seed: int = 2018,
    operand_classes=OperandClass.TABLE_IV_MIX,
    verify_functionally: bool = True,
    differential: bool = False,
) -> list:
    """One campaign cell per op × fmt × workload × solution × RocketConfig.

    The axes vary outermost first in that order, so the cells of one
    (op, fmt, workload) group are adjacent.  ``workloads`` holds registered
    names, or ``None`` for the ``operand_classes`` mix; a workload is
    skipped for every (op, fmt) pair it does not declare, and one that fits
    none of them raises.  ``solutions`` holds solution kinds (resolved to
    the paper's standard solutions), :class:`CoDesignSolution` objects, or
    ``(depth, width)`` staged-pipeline design points of Method-1 with a
    datapath sized per format (docs/pipeline.md).  Design points share one
    kind, so a grid that has any labels every cell ``"<solution name>
    (<op>) [<fmt>]"``; other cells take :class:`CampaignCell`'s default
    label.  ``rocket_configs`` defaults to one default :class:`RocketConfig`.
    """
    from repro.decnumber.formats import resolve_format_name
    from repro.decnumber.operations import resolve_operation_name
    from repro.workloads import get_workload

    try:
        ops = [resolve_operation_name(op) for op in ops]
        formats = [resolve_format_name(fmt) for fmt in formats]
    except DecimalError as error:
        raise ConfigurationError(str(error)) from None
    workloads = list(workloads)
    solutions = list(solutions)
    rocket_configs = list(rocket_configs or (RocketConfig(),))
    for axis, values in (("operation", ops), ("format", formats),
                         ("workload", workloads), ("solution", solutions),
                         ("RocketConfig", rocket_configs)):
        if not values:
            raise ConfigurationError(f"a campaign grid needs at least one {axis}")
    for name in workloads:
        if name is None:
            continue
        workload = get_workload(name)
        if not workload_fits(workload, ops, formats):
            raise ConfigurationError(
                f"workload {name!r} supports none of the requested "
                f"(operation, format) combinations ({ops} x {formats}; "
                f"declares {workload.operations} x {workload.formats})"
            )
    standard = standard_solutions()
    design_points = any(isinstance(entry, tuple) for entry in solutions)

    def resolve(entry, fmt) -> CoDesignSolution:
        if isinstance(entry, str):
            return standard[entry]
        if isinstance(entry, tuple):
            depth, width = entry
            return microarchitecture_variants((depth,), (width,), fmt=fmt)[0]
        return entry

    cells = []
    for op in ops:
        for fmt in formats:
            for name in workloads:
                if name is not None and not workload_fits(
                    get_workload(name), (op,), (fmt,)
                ):
                    continue
                for entry in solutions:
                    solution = resolve(entry, fmt)
                    label = ""
                    if design_points:
                        label = f"{solution.name} ({op}) [{fmt}]" + (
                            " [diff]" if differential else ""
                        )
                    for rocket_config in rocket_configs:
                        cells.append(CampaignCell(
                            solution=solution,
                            num_samples=num_samples,
                            operand_classes=tuple(operand_classes),
                            repetitions=repetitions,
                            seed=seed,
                            rocket_config=rocket_config,
                            verify_functionally=verify_functionally,
                            label=label,
                            workload=name,
                            differential=differential,
                            fmt=fmt,
                            op=op,
                        ))
    return cells


def table_iv_cells(
    num_samples: int = 100,
    kinds=None,
    repetitions: int = 1,
    seed: int = 2018,
    operand_classes=OperandClass.TABLE_IV_MIX,
    rocket_config: RocketConfig = None,
    verify_functionally: bool = True,
    solutions: dict = None,
    workload: str = None,
    differential: bool = False,
    fmt: str = "decimal64",
    op: str = "multiply",
) -> list:
    """One campaign cell per Table IV solution kind (a one-group grid).

    ``solutions`` maps kinds to the solutions to run (default: the paper's
    standard solutions).
    """
    kinds = kinds or TABLE_IV_KINDS
    return grid_cells(
        num_samples=num_samples,
        ops=(op,),
        formats=(fmt,),
        workloads=(workload,),
        solutions=[solutions[kind] for kind in kinds] if solutions else kinds,
        rocket_configs=(rocket_config,) if rocket_config is not None else None,
        repetitions=repetitions,
        seed=seed,
        operand_classes=operand_classes,
        verify_functionally=verify_functionally,
        differential=differential,
    )


def operation_cells(
    operations,
    formats=("decimal64",),
    num_samples: int = 100,
    kinds=None,
    repetitions: int = 1,
    seed: int = 2018,
    operand_classes=OperandClass.TABLE_IV_MIX,
    rocket_config: RocketConfig = None,
    verify_functionally: bool = True,
    solutions: dict = None,
    workloads=None,
    differential: bool = False,
) -> list:
    """The operation × format × workload-or-mix × kind grid of ``--op``.

    ``kinds`` defaults to the two *verifiable* Table IV kinds (method1 and
    the software baseline) — the dummy row measures multiply-shaped stub
    traffic and contributes nothing to a per-operation speedup comparison,
    but can be requested explicitly.
    """
    kinds = kinds or (SolutionKind.METHOD1, SolutionKind.SOFTWARE)
    return grid_cells(
        num_samples=num_samples,
        ops=operations,
        formats=formats,
        workloads=workloads or (None,),
        solutions=[solutions[kind] for kind in kinds] if solutions else kinds,
        rocket_configs=(rocket_config,) if rocket_config is not None else None,
        repetitions=repetitions,
        seed=seed,
        operand_classes=operand_classes,
        verify_functionally=verify_functionally,
        differential=differential,
    )


#: Per-process warm runner (see :mod:`repro.sim.batch`).  Pool workers live
#: across many shard tasks, so shards sharing a program shape (same solution
#: x format x operation x shard size) reuse one linked program and its warm
#: models — decoded closures, superblocks and compiled timing spans carry
#: over instead of being rebuilt per shard.  Warm reuse is
#: bit-identical to a fresh runner, so the engine's determinism guarantees
#: are unchanged.
_SHARD_RUNNER = None


def _shard_runner():
    global _SHARD_RUNNER
    if _SHARD_RUNNER is None:
        from repro.sim.batch import BatchRunner

        _SHARD_RUNNER = BatchRunner()
    return _SHARD_RUNNER


def _run_shard_task(task):
    """Worker entry point: one shard's picklable report and busy seconds."""
    cell, shard_index, start, vectors = task
    started = time.perf_counter()
    outcome = run_solution_shard(
        cell, vectors, shard_index=shard_index, start=start,
        runner=_shard_runner(),
    )
    return outcome.shard_report, time.perf_counter() - started


@dataclass
class CampaignResult:
    """Merged outcome of one campaign run."""

    cells: list
    reports: list                  # SolutionCycleReport, aligned with cells
    #: Worker processes the shard *plan* was sized for (1 = in-process).
    #: Plan-based rather than task-based so a cache-hit rerun (which
    #: schedules no tasks) summarises identically to the cold run.
    workers: int
    shards_per_cell: int
    wall_seconds: float
    baseline_kind: str = SolutionKind.SOFTWARE
    #: Content-addressed cache accounting (0/0 when no cache was attached).
    #: Deliberately *not* part of :meth:`to_summary`: a warm rerun's summary
    #: must stay bit-identical to the cold run's.
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def total_samples(self) -> int:
        return sum(cell.num_samples for cell in self.cells)

    @property
    def total_shards(self) -> int:
        return sum(report.num_shards for report in self.reports)

    @property
    def total_sim_wall_seconds(self) -> float:
        """Summed simulator wall-clock across all shards (CPU work done)."""
        return sum(report.sim_wall_seconds for report in self.reports)

    @property
    def differential(self) -> bool:
        """True when any cell ran in cross-model differential mode."""
        return any(cell.differential for cell in self.cells)

    @property
    def total_divergences(self) -> int:
        return sum(report.divergences for report in self.reports)

    @property
    def total_oracle_disagreements(self) -> int:
        return sum(report.oracle_disagreements for report in self.reports)

    @property
    def total_check_failures(self) -> int:
        return sum(report.verification_failures for report in self.reports)

    @property
    def differential_clean(self) -> bool:
        """No divergence, oracle split or check failure across all cells."""
        return not (
            self.total_divergences
            or self.total_oracle_disagreements
            or self.total_check_failures
        )

    def report_for(self, kind: str, workload: str = None,
                   fmt: str = None, op: str = None) -> SolutionCycleReport:
        """The merged report of one solution kind (plus workload/format/op).

        ``workload=None``/``fmt=None``/``op=None`` mean "unspecified": they
        match only when the matching cells all share one workload/format/
        operation, and raise on an ambiguous multi-workload, multi-format
        or multi-operation campaign rather than silently picking the first.
        ``fmt`` and ``op`` accept aliases ("quad", "mul", "mac").
        """
        if fmt is not None:
            from repro.decnumber.formats import resolve_format_name

            fmt = resolve_format_name(fmt)
        if op is not None:
            from repro.decnumber.operations import resolve_operation_name

            op = resolve_operation_name(op)
        matches = [
            (cell, report)
            for cell, report in zip(self.cells, self.reports)
            if cell.solution.kind == kind
            and (workload is None or cell.workload == workload)
            and (fmt is None or cell.fmt == fmt)
            and (op is None or cell.op == op)
        ]
        if not matches:
            raise ConfigurationError(
                f"no campaign cell evaluated kind {kind!r}"
                + (f" with workload {workload!r}" if workload else "")
                + (f" under format {fmt!r}" if fmt else "")
                + (f" for operation {op!r}" if op else "")
            )
        for axis, wanted in (("workload", workload), ("fmt", fmt), ("op", op)):
            values = {getattr(cell, axis) for cell, _ in matches}
            if wanted is None and len(values) > 1:
                raise ConfigurationError(
                    f"kind {kind!r} was evaluated under several "
                    f"{AXES[axis]}s ({sorted(map(str, values))}); "
                    f"pass report_for(kind, {axis}=...)"
                )
        return matches[0][1]

    def table_iv(self, baseline_kind: str = None) -> TableIVReport:
        """The campaign's rows as one Table IV report (one cell per kind)."""
        return self.group((), baseline_kind)[()]

    def group(self, by=tuple(AXES), baseline_kind: str = None) -> dict:
        """One Table IV report per distinct value of the ``by`` axes.

        ``by`` names axes of :data:`AXES` (``"op"``, ``"fmt"``,
        ``"workload"``); keys are tuples of the cells' values on those axes,
        in first-seen order, and each report holds its group's solution
        rows, so speedups are computed against the group's own baseline
        run.  An axis left out of ``by`` must hold one value across the
        campaign, and a kind may appear once per group; both raise
        otherwise.
        """
        by = tuple(by)
        unknown = [axis for axis in by if axis not in AXES]
        if unknown:
            raise ConfigurationError(
                f"cannot group by {unknown}; the axes are {tuple(AXES)}"
            )
        for axis, name in AXES.items():
            values = tuple(dict.fromkeys(getattr(c, axis) for c in self.cells))
            if axis not in by and len(values) > 1:
                raise ConfigurationError(
                    f"group(by={by}) is ambiguous over {name}s {values}; "
                    f"add {axis!r} to by"
                )
        grouped: dict = {}
        for cell, cycle_report in zip(self.cells, self.reports):
            key = tuple(getattr(cell, axis) for axis in by)
            table = grouped.setdefault(
                key,
                TableIVReport(
                    num_samples=cell.num_samples,
                    baseline_kind=baseline_kind or self.baseline_kind,
                ),
            )
            if cell.solution.kind in table.reports:
                raise ConfigurationError(
                    f"cell group {key!r} has duplicate cells for kind "
                    f"{cell.solution.kind!r}"
                )
            table.reports[cell.solution.kind] = cycle_report
            table.num_samples = max(table.num_samples, cell.num_samples)
        return grouped

    def to_summary(self) -> dict:
        """JSON-ready summary (used by the CLI and the campaign benchmark)."""
        summary = {
            "workers": self.workers,
            "shards_per_cell": self.shards_per_cell,
            "wall_seconds": round(self.wall_seconds, 4),
            "sim_wall_seconds": round(self.total_sim_wall_seconds, 4),
            "total_samples": self.total_samples,
            "total_shards": self.total_shards,
            "cells": [
                {
                    "label": cell.label,
                    "kind": cell.solution.kind,
                    "workload": cell.workload,
                    "fmt": cell.fmt,
                    "op": cell.op,
                    "solution": report.solution_name,
                    "samples": report.num_samples,
                    "shards": report.num_shards,
                    "avg_total_cycles": round(report.avg_total_cycles, 3),
                    "avg_hw_cycles": round(report.avg_hw_cycles, 3),
                    "avg_sw_cycles": round(report.avg_sw_cycles, 3),
                    "icache_hit_rate": round(report.icache_hit_rate, 6),
                    "dcache_hit_rate": round(report.dcache_hit_rate, 6),
                    "rocc_commands": report.rocc_commands,
                    "verification_failures": report.verification_failures,
                    "sim_wall_seconds": round(report.sim_wall_seconds, 4),
                }
                for cell, report in zip(self.cells, self.reports)
            ],
        }
        if self.differential:
            summary["differential"] = {
                "divergences": self.total_divergences,
                "oracle_disagreements": self.total_oracle_disagreements,
                "check_failures": self.total_check_failures,
            }
            for cell_summary, report in zip(summary["cells"], self.reports):
                if not report.differential:
                    continue
                cell_summary["differential"] = {
                    "models": list(report.models),
                    "divergences": report.divergences,
                    "oracle_disagreements": report.oracle_disagreements,
                    "gem5_cycles": report.gem5_cycles,
                    "conditions_covered": report.conditions_covered,
                    "first_divergence": report.first_divergence,
                }
        return summary


class _InlineExecutor(Executor):
    """Runs each task as it is submitted: the serial, in-process mode.

    A task's exception propagates from ``submit`` itself, so an inline
    campaign stops at its first failing shard, as a plain loop would.
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def process_pool(workers: int, mp_start_method: str = None) -> ProcessPoolExecutor:
    """A worker-process pool (``None``: the platform's start method)."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(mp_start_method),
    )


def lost_shard(cell, start: int, stop: int, error) -> CampaignError:
    """The error for a shard pending when a worker process died.

    A dead worker breaks every pending shard at once, so the shard named
    is one the campaign lost, not necessarily the one that killed it.
    """
    return CampaignError(
        f"a worker process died and broke the pool while shard "
        f"[{start}, {stop}) of cell {cell.label!r} was pending "
        f"({type(error).__name__}: {error})"
    )


class CampaignRun:
    """The plan → cache lookup → compute → store → merge core of a campaign.

    :func:`run_campaign` drives these steps to completion on one executor;
    :class:`repro.service.engine.CampaignService` drives the same steps from
    its event loop and adds request coalescing, progress events and job
    state.  ``shards[cell_id]`` holds each cell's shard reports once it is
    loaded, computed or handed over by another run.
    """

    def __init__(self, cells, shards_per_cell: int = 1, cache=None) -> None:
        self.started = time.perf_counter()
        self.cells = list(cells)
        if not self.cells:
            raise ConfigurationError("a campaign needs at least one cell")
        self.shards_per_cell = shards_per_cell
        self.cache = cache
        self.plans = [
            plan_shards(cell.num_samples, shards_per_cell) for cell in self.cells
        ]
        self.keys = [
            cache.key_for(cell, shards_per_cell) if cache is not None else None
            for cell in self.cells
        ]
        self.shards = [None] * len(self.cells)
        self.cache_hits = 0

    def pool_size(self, workers: int) -> int:
        """Workers the plan is sized for (1 = in-process; see CampaignResult)."""
        if workers is None:
            workers = os.cpu_count() or 1
        planned = sum(len(plan) for plan in self.plans)
        return 1 if workers <= 1 or planned == 1 else min(workers, planned)

    def load(self, cell_id: int) -> bool:
        """Satisfy one cell from the result cache; False on a miss."""
        if self.cache is None:
            return False
        cached = self.cache.load(self.keys[cell_id])
        if cached is None:
            return False
        self.shards[cell_id] = list(cached)
        self.cache_hits += 1
        return True

    def submit(self, executor, cell_id: int, vectors) -> list:
        """Submit one task per planned shard: ``(future, start, stop)``.

        Vectors are generated once per cell and pre-sliced into the tasks,
        so workers never regenerate a cell's full set per shard.
        """
        cell = self.cells[cell_id]
        return [
            (executor.submit(_run_shard_task,
                             (cell, index, start, vectors[start:stop])),
             start, stop)
            for index, (start, stop) in enumerate(self.plans[cell_id])
        ]

    def store(self, cell_id: int) -> None:
        """Persist one computed cell for later runs (no-op without a cache)."""
        if self.cache is not None:
            self.cache.store(self.keys[cell_id], self.shards[cell_id],
                             label=self.cells[cell_id].label)

    def result(self, workers: int) -> CampaignResult:
        """Merge every cell's shards into the campaign's result."""
        wall_seconds = time.perf_counter() - self.started
        reports = [
            merge_shard_reports(
                solution_name=cell.solution.name,
                solution_kind=cell.solution.kind,
                shards=shards,
                repetitions=cell.repetitions,
            )
            for cell, shards in zip(self.cells, self.shards)
        ]
        return CampaignResult(
            cells=self.cells,
            reports=reports,
            workers=self.pool_size(workers),
            shards_per_cell=self.shards_per_cell,
            wall_seconds=wall_seconds,
            cache_hits=self.cache_hits,
            cache_misses=(
                len(self.cells) - self.cache_hits if self.cache is not None
                else 0
            ),
        )


def run_campaign(
    cells,
    workers: int = 1,
    shards_per_cell: int = 1,
    mp_start_method: str = None,
    cache=None,
) -> CampaignResult:
    """Run every cell, sharded and fanned out over worker processes.

    ``workers <= 1`` runs all shards in-process (the serial reference mode);
    any worker count produces the same merged reports for the same shard
    plan, because the plan — not the scheduling — defines the measurement.
    ``mp_start_method`` overrides the platform's multiprocessing start
    method ("fork" is fastest where available).  A worker process that dies
    fails the campaign at once with a :class:`~repro.errors.CampaignError`
    naming a cell and shard that was pending when the pool broke.

    ``cache`` may pass a :class:`repro.service.cache.ResultCache`: cells
    whose content address (inputs + code fingerprint) is already stored are
    satisfied without generating vectors or scheduling shards, and freshly
    computed cells are persisted for the next run.  Cached and fresh shard
    reports merge through the same accounting, so a warm rerun's summary is
    bit-identical to the cold run's (the ``--cache-dir`` CLI mode and the
    campaign service both rest on this).
    """
    run = CampaignRun(cells, shards_per_cell, cache)
    missing = [cell_id for cell_id in range(len(run.cells))
               if not run.load(cell_id)]
    tasks = sum(len(run.plans[cell_id]) for cell_id in missing)
    pool_size = min(run.pool_size(workers), tasks)
    executor = (
        process_pool(pool_size, mp_start_method) if pool_size > 1
        else _InlineExecutor()
    )
    try:
        submitted = [
            (cell_id, run.submit(executor, cell_id,
                                 run.cells[cell_id].generate_vectors()))
            for cell_id in missing
        ]
        for cell_id, shards in submitted:
            reports = []
            for future, start, stop in shards:
                try:
                    reports.append(future.result()[0])
                except BrokenExecutor as error:
                    raise lost_shard(run.cells[cell_id], start, stop,
                                     error) from error
            run.shards[cell_id] = reports
            run.store(cell_id)
    finally:
        executor.shutdown(cancel_futures=True)
    return run.result(workers)
