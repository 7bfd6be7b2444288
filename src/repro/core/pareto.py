"""Pareto analysis of co-design configurations (performance vs hardware cost).

The paper motivates co-design by the *Pareto points* it offers between
hardware cost and performance.  This module evaluates a set of solutions /
accelerator configurations with the same framework and extracts the Pareto
frontier over (average cycles, gate equivalents).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.evaluation import EvaluationFramework
from repro.core.solution import CoDesignSolution
from repro.testgen.config import SolutionKind


@dataclass(frozen=True)
class ParetoPoint:
    """One evaluated design point."""

    name: str
    avg_cycles: float
    gate_equivalents: float
    flip_flops: int = 0

    def dominates(self, other: "ParetoPoint") -> bool:
        """True if this point is at least as good on both axes and better on one."""
        not_worse = (
            self.avg_cycles <= other.avg_cycles
            and self.gate_equivalents <= other.gate_equivalents
        )
        strictly_better = (
            self.avg_cycles < other.avg_cycles
            or self.gate_equivalents < other.gate_equivalents
        )
        return not_worse and strictly_better


def frontier_of(points) -> list:
    """The non-dominated subset of ``points``, deterministically ordered.

    A point survives iff no other point dominates it; coincident points
    (neither dominates the other) all survive.  The order — ascending
    cycles, then gate equivalents, then name — is a pure function of the
    point set, so repeated sweeps render identically.
    """
    points = list(points)
    frontier = [
        point
        for point in points
        if not any(other.dominates(point) for other in points)
    ]
    return sorted(frontier, key=_rank)


def _rank(point: ParetoPoint) -> tuple:
    return point.avg_cycles, point.gate_equivalents, point.name


def ranked_points(points) -> list:
    """``(point, on_frontier)`` pairs, sorted as :func:`frontier_of` sorts."""
    frontier = frontier_of(points)
    return [(point, point in frontier) for point in sorted(points, key=_rank)]


def points_from_campaign(result) -> dict:
    """Pareto points of a sweep-style campaign, grouped ``(op, fmt)``.

    One :class:`ParetoPoint` per campaign cell: cycles from the merged
    report, area straight off the solution's pinned configuration.  Used by
    ``python -m repro.campaign --pipeline-sweep`` to render one frontier per
    format × operation group.
    """
    groups: dict = {}
    for cell, report in zip(result.cells, result.reports):
        overhead = cell.solution.hardware_overhead(cell.fmt)
        point = ParetoPoint(
            name=cell.solution.name,
            avg_cycles=report.avg_total_cycles,
            gate_equivalents=overhead.total_gate_equivalents if overhead else 0.0,
            flip_flops=overhead.total_flip_flops if overhead else 0,
        )
        groups.setdefault((cell.op, cell.fmt), []).append(point)
    return groups


def frontier_summary(result) -> dict:
    """JSON-ready design points of a sweep campaign, per ``"op/fmt"`` group."""
    return {
        f"{op}/{fmt}": [
            {
                "name": point.name,
                "avg_cycles": round(point.avg_cycles, 3),
                "gate_equivalents": round(point.gate_equivalents, 1),
                "flip_flops": point.flip_flops,
                "pareto": on_frontier,
            }
            for point, on_frontier in ranked_points(points)
        ]
        for (op, fmt), points in points_from_campaign(result).items()
    }


@dataclass
class ParetoAnalyzer:
    """Evaluates a family of solutions and reports the Pareto frontier."""

    framework: EvaluationFramework
    points: list = field(default_factory=list)

    def evaluate_solution(self, solution: CoDesignSolution) -> ParetoPoint:
        """Measure one solution and record its design point."""
        original = self.framework.solutions.get(solution.kind)
        self.framework.solutions[solution.kind] = solution
        try:
            run = self.framework.run_cycle_accurate(solution.kind)
        finally:
            if original is not None:
                self.framework.solutions[solution.kind] = original
            else:
                # The kind had no registered solution before: drop the
                # temporary entry instead of leaking it into later runs.
                self.framework.solutions.pop(solution.kind, None)
        return self._record_point(solution, run.cycle_report)

    def _record_point(self, solution: CoDesignSolution, cycle_report) -> ParetoPoint:
        overhead = solution.hardware_overhead(self.framework.fmt)
        point = ParetoPoint(
            name=solution.name,
            avg_cycles=cycle_report.avg_total_cycles,
            gate_equivalents=overhead.total_gate_equivalents if overhead else 0.0,
            flip_flops=overhead.total_flip_flops if overhead else 0,
        )
        self.points.append(point)
        return point

    def evaluate_sweep(
        self,
        solutions,
        rocket_configs=None,
        workers: int = 1,
        shards_per_cell: int = 1,
    ) -> list:
        """Evaluate a family of design points through the campaign engine.

        Builds the campaign grid of (solution × RocketConfig) cells — all
        over the framework's operation, format, workload or operand mix and
        vector parameters — runs them (in parallel when ``workers > 1``)
        and records the resulting points.  Unlike :meth:`evaluate_solution`
        this never touches ``framework.solutions``, so there is no state to
        restore.
        """
        from repro.core.campaign import grid_cells, run_campaign

        framework = self.framework
        cells = [
            replace(cell, label=f"{cell.solution.name} @ "
                                f"{cell.rocket_config.frequency_hz / 1e6:.0f}MHz")
            for cell in grid_cells(
                num_samples=framework.num_samples,
                ops=(framework.operation,),
                formats=(framework.fmt,),
                workloads=(framework.workload,),
                solutions=solutions,
                rocket_configs=rocket_configs or (framework.rocket_config,),
                repetitions=framework.repetitions,
                seed=framework.seed,
                operand_classes=framework.operand_classes,
                verify_functionally=framework.verify_functionally,
            )
        ]
        result = run_campaign(
            cells, workers=workers, shards_per_cell=shards_per_cell
        )
        return [
            self._record_point(cell.solution, report)
            for cell, report in zip(result.cells, result.reports)
        ]

    def evaluate_standard_points(self, workers: int = 1) -> list:
        """Evaluate the software baseline and Method-1 (the paper's two designs)."""
        self.evaluate_sweep(
            [
                self.framework.solutions[kind]
                for kind in (SolutionKind.SOFTWARE, SolutionKind.METHOD1)
            ],
            workers=workers,
        )
        return self.points

    def sweep_microarchitecture(
        self,
        depths=(1, 2, 4, 8),
        widths=(1, 2, 4),
        include_baseline: bool = True,
        workers: int = 1,
        shards_per_cell: int = 1,
    ) -> list:
        """Evaluate a staged-pipeline depth × width grid as design points.

        Builds one Method-1 variant per (depth, width) with a format-sized
        datapath pinning those pipeline knobs (docs/pipeline.md), plus the
        software baseline as the zero-hardware reference point, and fans
        them through :meth:`evaluate_sweep`.  The recorded points trade
        cycles (deeper pipelines overlap back-to-back RoCC commands)
        against area (stage latch ranks and issue-queue registers).
        """
        from repro.core.solution import microarchitecture_variants

        solutions = []
        if include_baseline:
            solutions.append(self.framework.solutions[SolutionKind.SOFTWARE])
        solutions.extend(
            microarchitecture_variants(depths, widths, fmt=self.framework.fmt)
        )
        return self.evaluate_sweep(
            solutions, workers=workers, shards_per_cell=shards_per_cell
        )

    def frontier(self) -> list:
        """The non-dominated subset of evaluated points, sorted by cycles."""
        return frontier_of(self.points)
