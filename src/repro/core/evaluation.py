"""The evaluation framework: functional verification + cycle-accurate measurement.

``EvaluationFramework`` reproduces the paper's flow end to end.  A typical use
(the Table IV experiment) is::

    framework = EvaluationFramework(num_samples=200)
    table_iv = framework.evaluate_table_iv()
    print(reporting.render_table_iv(table_iv))

All three solutions are evaluated over the *same* operand vectors, the cycle
measurements come from the Rocket-like emulator with the decimal accelerator
attached, and for verifiable solutions the result words of that same run are
checked against the golden library.  The paper checks on Spike because its
Rocket is RTL; here Rocket runs the functional simulator's tier-1 machine
plus timing, so checking its words checks the run whose cycles are reported.

The measurement primitive is :func:`run_solution_shard`: one campaign cell's
Rocket (+ spike and gem5 when differential) pass over a contiguous slice of
vectors, acquired through a :class:`~repro.sim.batch.BatchRunner` that links
the cell's program once for every model.  Every evaluation is made of such
shards: the framework measures each solution as one shard over its own
vectors on a fresh runner (the cold reference), and the campaign engine
(:mod:`repro.core.campaign`) fans shards out over worker processes, each
with a warm per-process runner, and merges them through the same
accounting code, so both paths agree bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.host_eval import HostEvaluator
from repro.core.results import (
    ShardCycleReport,
    SolutionCycleReport,
    TableIVReport,
    TableVIReport,
    TimedRow,
    merge_shard_reports,
)
from repro.core.solution import CoDesignSolution, standard_solutions
from repro.errors import ConfigurationError, VerificationError
from repro.gem5.se_mode import Gem5Config, SyscallEmulationRunner
from repro.rocket.config import RocketConfig
from repro.sim.batch import BatchRunner
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program
from repro.verification.checker import ResultChecker
from repro.verification.database import OperandClass
from repro.verification.reference import GoldenReference


def checker_for_workload(workload: str = None, fmt: str = "decimal64",
                         operation: str = "multiply") -> ResultChecker:
    """The functional checker for a run.

    When ``workload`` resolves in this process's registry the checker
    judges results with that workload's :meth:`~repro.workloads.Workload.
    expected` oracle; otherwise (no workload, or a user-registered name a
    spawn-started worker never imported — the vectors themselves always
    come from the parent) it falls back to the golden-library default,
    which is also what the base oracle delegates to.  ``fmt`` selects the
    interchange format and ``operation`` the arithmetic operation the
    oracle computes under.
    """
    if workload is not None:
        from repro.workloads import get_workload

        try:
            resolved = get_workload(workload)
        except ConfigurationError:
            resolved = None  # only the unknown-name case may fall back
        if resolved is not None:
            return resolved.make_checker(fmt, operation)
    return ResultChecker(GoldenReference(operation=operation, precision=fmt))


@dataclass
class ShardRunOutcome:
    """Everything produced by one shard run (live objects + picklable report)."""

    shard_report: ShardCycleReport
    program: object = None
    functional_result: object = None
    timed_result: object = None
    check_report: object = None
    #: A differential shard's :class:`~repro.verification.differential.
    #: Divergence` list (the report keeps only their count and the first).
    divergences: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Any divergence, kernel/oracle check failure, or oracle split."""
        check = self.check_report
        return bool(
            self.divergences
            or getattr(check, "failures", None)
            or getattr(check, "oracle_disagreements", None)
        )


def run_solution_shard(
    cell,
    vectors,
    *,
    shard_index: int = 0,
    start: int = 0,
    checker: ResultChecker = None,
    runner: BatchRunner = None,
) -> ShardRunOutcome:
    """Verify and measure one campaign cell over one slice of its vectors.

    This is the single unit of work of every evaluation: the shard's
    program is acquired through ``runner`` (a fresh :class:`~repro.sim.
    batch.BatchRunner` when omitted — the cold reference) and measured on
    the Rocket-like emulator under the cell's :class:`~repro.rocket.config.
    RocketConfig`.  When the ``cell`` checks a verifiable solution, the
    result words of that Rocket run — the run whose cycles are reported —
    are golden-checked; a failure raises :class:`~repro.errors.
    VerificationError` naming the samples.  ``start``/``shard_index`` only
    label the shard inside a larger campaign; a serial run passes the full
    vector set with ``start=0``.  ``checker`` overrides the cell's default
    functional checker.

    A warm runner links each program shape once and keeps its models warm
    between shards (decoded closures and superblocks for the functional run,
    the timing compiler for the Rocket run); that reuse is bit-identical to
    a fresh runner (same image bytes, results, retire and cycle counts).

    A differential cell becomes a cross-model shard — the one
    co-simulation path, which the fuzz engine (:mod:`repro.fuzz`) drives
    too, and the only one that runs the SPIKE-style functional simulator:
    the check uses the **dual-oracle** checker (decnumber + stdlib
    ``decimal``), the program additionally runs on Spike and on the gem5
    atomic model, and the spike/rocket/gem5 result buffers are diffed
    vector-by-vector.  Divergences, oracle disagreements and check failures
    are *recorded* (instead of raising): counts in the shard report, so a
    sharded campaign can merge and render them, and the live divergences
    and check report on the outcome (:attr:`ShardRunOutcome.failed`).
    Host-side golden condition coverage of the shard's vectors is recorded
    alongside.
    """
    vectors = list(vectors)
    if runner is None:
        runner = BatchRunner()
    solution = cell.solution
    fmt, operation, differential = cell.fmt, cell.op, cell.differential
    config = TestProgramConfig(
        solution=solution.kind,
        precision=TestProgramConfig.precision_for_format(fmt),
        num_samples=len(vectors),
        repetitions=cell.repetitions,
        operand_classes=cell.operand_classes,
        seed=cell.seed,
        workload=cell.workload,
        operation=operation,
    )
    report = ShardCycleReport(
        shard_index=shard_index, start=start, stop=start + len(vectors),
        differential=differential, fmt=fmt, operation=operation,
    )
    outcome = ShardRunOutcome(shard_report=report)
    verify = cell.verify_functionally and solution.verifiable

    spike_words = None
    if differential:
        program, simulator = runner.acquire(solution, config, vectors)
        started = time.perf_counter()
        functional = simulator.run()
        report.sim_wall_seconds += time.perf_counter() - started
        outcome.functional_result = functional
        spike_words = program.read_results(functional)

    program, emulator = runner.acquire_timed(
        solution, config, vectors, rocket_config=cell.rocket_config
    )
    outcome.program = program
    started = time.perf_counter()
    timed = emulator.run()
    report.sim_wall_seconds += time.perf_counter() - started
    outcome.timed_result = timed

    report.raw_cycle_samples = program.read_cycle_samples(timed)
    report.hw_cycles = timed.hw_cycles
    report.sw_cycles = timed.sw_cycles
    report.instructions_retired = timed.instructions_retired
    report.total_cycles_run = timed.cycles
    report.icache_accesses = timed.icache_stats.accesses
    report.icache_hits = timed.icache_stats.hits
    report.icache_misses = timed.icache_stats.misses
    report.dcache_accesses = timed.dcache_stats.accesses
    report.dcache_hits = timed.dcache_stats.hits
    report.dcache_misses = timed.dcache_stats.misses
    report.rocc_commands = timed.rocc_commands
    rocket_words = (
        program.read_results(timed) if verify or differential else None
    )

    if verify:
        if checker is None:
            if differential:
                from repro.verification.differential import (
                    dual_checker_for_workload,
                )

                checker = dual_checker_for_workload(cell.workload, fmt, operation)
            else:
                checker = checker_for_workload(cell.workload, fmt, operation)
        outcome.check_report = checker.check_run(vectors, rocket_words)
        report.verified = True
        report.check_total = outcome.check_report.total
        report.check_failed = outcome.check_report.failed
        report.oracle_disagreements = len(
            getattr(outcome.check_report, "oracle_disagreements", ())
        )
        if not differential and not outcome.check_report.all_passed:
            # Differential cells record failures for the campaign report
            # instead of aborting the whole run on the first bad shard.
            raise VerificationError(
                f"{solution.name}: functional verification failed "
                f"({outcome.check_report.failed}/{outcome.check_report.total}) "
                f"on samples [{start}:{start + len(vectors)})"
            )

    if differential:
        from repro.verification.coverage import CoverageTracker
        from repro.verification.differential import diff_result_words

        started = time.perf_counter()
        gem5_result = SyscallEmulationRunner().run_binary(
            program.image, accelerator=solution.make_accelerator(fmt)
        )
        report.sim_wall_seconds += time.perf_counter() - started
        report.gem5_cycles = gem5_result.ticks

        words_by_model = {
            "spike": spike_words,
            "rocket": rocket_words,
            "gem5": program.read_results(gem5_result),
        }
        report.models = tuple(words_by_model)
        divergences = outcome.divergences = diff_result_words(
            vectors, words_by_model,
            decode=GoldenReference(precision=fmt).decode,
            operation=operation,
        )
        report.divergences = len(divergences)
        if divergences:
            report.first_divergence = divergences[0].describe()
        tracker = CoverageTracker(
            GoldenReference(operation=operation, precision=fmt)
        )
        tracker.record_all(vectors)
        report.condition_coverage = dict(tracker.condition_counts)
    return outcome


@dataclass
class EvaluationFramework:
    """Drives the full evaluation pipeline over a shared set of vectors."""

    num_samples: int = 100
    repetitions: int = 1
    seed: int = 2018
    operand_classes: tuple = OperandClass.TABLE_IV_MIX
    rocket_config: RocketConfig = field(default_factory=RocketConfig)
    verify_functionally: bool = True
    solutions: dict = field(default_factory=standard_solutions)
    #: Registered workload name; when set, the shared vectors come from the
    #: workload registry instead of the ``operand_classes`` mix.
    workload: str = None
    #: Interchange format the whole evaluation runs under.
    fmt: str = "decimal64"
    #: Decimal operation the whole evaluation measures (multiply/add/
    #: subtract/fma): selects the kernels, the vector shape and the oracles.
    operation: str = "multiply"

    def __post_init__(self) -> None:
        from repro.decnumber.formats import resolve_format_name
        from repro.decnumber.operations import resolve_operation_name
        from repro.errors import DecimalError
        from repro.testgen.generator import draw_vectors

        try:
            self.fmt = resolve_format_name(self.fmt)
            self.operation = resolve_operation_name(self.operation)
        except DecimalError as error:
            raise ConfigurationError(str(error)) from None
        self.vectors = draw_vectors(
            self.num_samples,
            self.seed,
            operand_classes=self.operand_classes,
            workload=self.workload,
            fmt=self.fmt,
            operation=self.operation,
        )
        self.checker = checker_for_workload(
            self.workload, self.fmt, self.operation
        )

    def build_program(self, kind: str):
        """Generate the test program for one solution over the shared vectors."""
        return build_test_program(
            TestProgramConfig(
                solution=kind,
                precision=TestProgramConfig.precision_for_format(self.fmt),
                num_samples=self.num_samples,
                repetitions=self.repetitions,
                operand_classes=self.operand_classes,
                seed=self.seed,
                workload=self.workload,
                operation=self.operation,
            ),
            vectors=self.vectors,
        )

    def measure(self, solution: CoDesignSolution) -> SolutionCycleReport:
        """Verify and measure ``solution`` over the shared vectors.

        One :func:`run_solution_shard` over the framework's own vectors on a
        fresh runner; ``solution`` need not be registered in
        :attr:`solutions`.
        """
        from repro.core.campaign import CampaignCell

        cell = CampaignCell(
            solution=solution,
            num_samples=len(self.vectors),
            operand_classes=self.operand_classes,
            repetitions=self.repetitions,
            seed=self.seed,
            rocket_config=self.rocket_config,
            verify_functionally=self.verify_functionally,
            workload=self.workload,
            fmt=self.fmt,
            op=self.operation,
        )
        outcome = run_solution_shard(cell, self.vectors, checker=self.checker)
        return merge_shard_reports(
            solution_name=solution.name,
            solution_kind=solution.kind,
            shards=[outcome.shard_report],
            repetitions=self.repetitions,
        )

    def run_cycle_accurate(self, kind: str) -> SolutionCycleReport:
        """Measure one solution kind and golden-check the measured run."""
        return self.measure(self.solutions[kind])

    # -------------------------------------------------------------- experiments
    def evaluate_table_iv(self, kinds=None) -> TableIVReport:
        """Reproduce Table IV: average cycles and speedups of the solutions.

        Serial and in-process; the same rows in parallel are
        ``run_campaign(table_iv_cells(...), workers=N).table_iv()``.
        """
        report = TableIVReport(
            num_samples=self.num_samples, baseline_kind=SolutionKind.SOFTWARE
        )
        for kind in kinds or (
            SolutionKind.METHOD1,
            SolutionKind.SOFTWARE,
            SolutionKind.METHOD1_DUMMY,
        ):
            report.reports[kind] = self.run_cycle_accurate(kind)
        return report

    def evaluate_table_v(self, num_samples: int = None, repetitions: int = 1):
        """Reproduce Table V: host wall-clock of the software-only variants."""
        evaluator = HostEvaluator(
            num_samples=num_samples or self.num_samples,
            repetitions=repetitions,
            seed=self.seed,
            operand_classes=self.operand_classes,
        )
        return evaluator.evaluate()

    def evaluate_table_vi(self, frequency_hz: int = 2_000_000_000) -> TableVIReport:
        """Reproduce Table VI: the same binaries on the Gem5 atomic model."""
        runner = SyscallEmulationRunner(Gem5Config(frequency_hz=frequency_hz))
        report = TableVIReport(baseline_kind=SolutionKind.SOFTWARE)
        for kind in (SolutionKind.METHOD1_DUMMY, SolutionKind.SOFTWARE):
            solution = self.solutions[kind]
            program = self.build_program(kind)
            result = runner.run_binary(
                program.image, accelerator=solution.make_accelerator(self.fmt)
            )
            report.rows[kind] = TimedRow(
                name=solution.name,
                seconds=result.simulated_seconds,
                samples=self.num_samples,
            )
            report.instructions[kind] = result.instructions_retired
        return report

    def hardware_overhead(self, kind: str = SolutionKind.METHOD1):
        """Area report of the accelerator a solution needs (None if software-only)."""
        return self.solutions[kind].hardware_overhead(self.fmt)
