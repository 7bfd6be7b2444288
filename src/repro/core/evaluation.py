"""The evaluation framework: functional verification + cycle-accurate measurement.

``EvaluationFramework`` reproduces the paper's flow end to end.  A typical use
(the Table IV experiment) is::

    framework = EvaluationFramework(num_samples=200)
    table_iv = framework.evaluate_table_iv()
    print(reporting.render_table_iv(table_iv))

All three solutions are evaluated over the *same* operand vectors, results of
verifiable solutions are checked against the golden library on the functional
simulator first, and the cycle measurements come from the Rocket-like emulator
with the decimal accelerator attached.

The measurement primitive is :func:`run_solution_shard`: one build/link +
spike + Rocket pass over a contiguous slice of vectors.  A serial evaluation
is the single-shard case; the campaign engine (:mod:`repro.core.campaign`)
fans many shards out over worker processes and merges them through the same
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
from repro.rocket.core import RocketEmulator
from repro.sim.spike import SpikeSimulator
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program
from repro.verification.checker import ResultChecker
from repro.verification.database import OperandClass, VerificationDatabase
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

    program: object
    shard_report: ShardCycleReport
    functional_result: object = None
    timed_result: object = None
    check_report: object = None


def run_solution_shard(
    solution: CoDesignSolution,
    vectors,
    *,
    operand_classes=OperandClass.TABLE_IV_MIX,
    repetitions: int = 1,
    seed: int = 2018,
    rocket_config: RocketConfig = None,
    verify_functionally: bool = True,
    checker: ResultChecker = None,
    shard_index: int = 0,
    start: int = 0,
    workload: str = None,
    differential: bool = False,
    fmt: str = "decimal64",
    operation: str = "multiply",
    runner=None,
) -> ShardRunOutcome:
    """Build, verify and measure one solution over one slice of vectors.

    This is the single unit of work of every evaluation: the shard's test
    program is built and linked once, run on the SPIKE-style functional
    simulator (golden-checked when the solution is verifiable), then measured
    on the Rocket-like emulator.  ``start``/``shard_index`` only label the
    shard inside a larger campaign; a serial run passes the full vector set
    with ``start=0``.

    With ``differential=True`` the shard becomes a cross-model cell: the
    functional check uses the **dual-oracle** checker (decnumber + stdlib
    ``decimal``), the program additionally runs on the gem5 atomic model,
    and the spike/rocket/gem5 result buffers are diffed vector-by-vector.
    Divergences, oracle disagreements and check failures are *recorded* in
    the shard report (instead of raising), so a sharded campaign can merge
    and render them; host-side golden condition coverage of the shard's
    vectors is recorded alongside.

    ``runner`` may pass a :class:`repro.sim.batch.BatchRunner`: the shard's
    program is then rebound onto a cached template (no re-assemble/re-link)
    and the functional run reuses that runner's warm executor — tier-2
    compiled superblocks and promotion state carry over between shards of
    the same shape.  Batch mode is bit-identical to the cold path (same
    image bytes, same results, same retire counts); the campaign engine
    turns it on per worker process.
    """
    vectors = list(vectors)
    config = TestProgramConfig(
        solution=solution.kind,
        precision=TestProgramConfig.precision_for_format(fmt),
        num_samples=len(vectors),
        repetitions=repetitions,
        operand_classes=operand_classes,
        seed=seed,
        workload=workload,
        operation=operation,
    )
    fmt = config.fmt  # canonical name
    operation = config.operation  # canonical name
    if runner is not None:
        program, warm_simulator = runner.acquire(solution, config, vectors)
    else:
        program = build_test_program(config, vectors=vectors)
        warm_simulator = None
    outcome = ShardRunOutcome(
        program=program,
        shard_report=ShardCycleReport(
            shard_index=shard_index, start=start, stop=start + len(vectors)
        ),
    )
    report = outcome.shard_report
    report.differential = differential
    report.fmt = fmt
    report.operation = operation

    spike_words = None
    run_spike = (verify_functionally and solution.verifiable) or differential
    if run_spike:
        if warm_simulator is not None:
            simulator = warm_simulator
        else:
            simulator = SpikeSimulator(
                program.image, accelerator=solution.make_accelerator(fmt)
            )
        started = time.perf_counter()
        functional = simulator.run()
        report.sim_wall_seconds += time.perf_counter() - started
        outcome.functional_result = functional
        spike_words = program.read_results(functional)

    if verify_functionally and solution.verifiable:
        if checker is None:
            if differential:
                from repro.verification.differential import (
                    dual_checker_for_workload,
                )

                checker = dual_checker_for_workload(workload, fmt, operation)
            else:
                checker = checker_for_workload(workload, fmt, operation)
        outcome.check_report = checker.check_run(vectors, spike_words)
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

    if runner is not None:
        # Warm cycle-accurate path: cold caches are restored by reset(),
        # only the timing compiler (decoded code + compiled spans) is
        # reused — cycle counts are bit-identical to the cold branch.
        _, emulator = runner.acquire_timed(
            solution, config, vectors, rocket_config=rocket_config
        )
    else:
        emulator = RocketEmulator(
            program.image,
            accelerator=solution.make_accelerator(fmt),
            config=rocket_config if rocket_config is not None else RocketConfig(),
        )
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

    if differential:
        from repro.verification.coverage import CoverageTracker
        from repro.verification.differential import diff_result_words

        runner = SyscallEmulationRunner(Gem5Config())
        started = time.perf_counter()
        gem5_result = runner.run_binary(
            program.image, accelerator=solution.make_accelerator(fmt)
        )
        report.sim_wall_seconds += time.perf_counter() - started
        report.gem5_cycles = gem5_result.ticks

        words_by_model = {
            "spike": spike_words,
            "rocket": program.read_results(timed),
            "gem5": program.read_results(gem5_result),
        }
        report.models = tuple(words_by_model)
        divergences = diff_result_words(
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
class EvaluationRun:
    """Everything produced by evaluating one solution once."""

    solution: CoDesignSolution
    program: object
    functional_result: object = None
    timed_result: object = None
    check_report: object = None
    cycle_report: SolutionCycleReport = None
    #: Host wall-clock seconds spent inside simulator runs for this
    #: evaluation, and the resulting simulation rate — tracked so the
    #: framework's own overhead stays visible at paper scale
    #: (REPRO_BENCH_SAMPLES=8000).
    sim_wall_seconds: float = 0.0

    @property
    def sim_instructions_per_second(self) -> float:
        retired = 0
        if self.functional_result is not None:
            retired += self.functional_result.instructions_retired
        if self.timed_result is not None:
            retired += self.timed_result.instructions_retired
        if not self.sim_wall_seconds:
            return 0.0
        return retired / self.sim_wall_seconds


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
        self.database = VerificationDatabase(self.seed, fmt=self.fmt)
        self.vectors = draw_vectors(
            self.num_samples,
            self.seed,
            operand_classes=self.operand_classes,
            workload=self.workload,
            database=self.database,
            fmt=self.fmt,
            operation=self.operation,
        )
        self.reference = GoldenReference(
            operation=self.operation, precision=self.fmt
        )
        self.checker = checker_for_workload(
            self.workload, self.fmt, self.operation
        )

    # ----------------------------------------------------------------- building
    def _config_for(self, kind: str) -> TestProgramConfig:
        return TestProgramConfig(
            solution=kind,
            precision=TestProgramConfig.precision_for_format(self.fmt),
            num_samples=self.num_samples,
            repetitions=self.repetitions,
            operand_classes=self.operand_classes,
            seed=self.seed,
            workload=self.workload,
            operation=self.operation,
        )

    def build_program(self, kind: str):
        """Generate the test program for one solution over the shared vectors."""
        return build_test_program(self._config_for(kind), vectors=self.vectors)

    # ------------------------------------------------------------- single runs
    def run_functional(self, kind: str) -> EvaluationRun:
        """SPIKE-style functional run + golden check (when verifiable)."""
        solution = self.solutions[kind]
        program = self.build_program(kind)
        simulator = SpikeSimulator(
            program.image, accelerator=solution.make_accelerator(self.fmt)
        )
        started = time.perf_counter()
        result = simulator.run()
        elapsed = time.perf_counter() - started
        run = EvaluationRun(
            solution=solution, program=program, functional_result=result,
            sim_wall_seconds=elapsed,
        )
        if solution.verifiable:
            run.check_report = self.checker.check_run(
                self.vectors, program.read_results(result)
            )
        return run

    def run_cycle_accurate(self, kind: str) -> EvaluationRun:
        """Full pipeline for one solution: verify functionally, then measure."""
        solution = self.solutions[kind]
        outcome = run_solution_shard(
            solution,
            self.vectors,
            operand_classes=self.operand_classes,
            repetitions=self.repetitions,
            seed=self.seed,
            rocket_config=self.rocket_config,
            verify_functionally=self.verify_functionally,
            checker=self.checker,
            workload=self.workload,
            fmt=self.fmt,
            operation=self.operation,
        )
        run = EvaluationRun(
            solution=solution,
            program=outcome.program,
            functional_result=outcome.functional_result,
            timed_result=outcome.timed_result,
            check_report=outcome.check_report,
            sim_wall_seconds=outcome.shard_report.sim_wall_seconds,
        )
        run.cycle_report = merge_shard_reports(
            solution_name=solution.name,
            solution_kind=kind,
            shards=[outcome.shard_report],
            repetitions=self.repetitions,
        )
        return run

    # -------------------------------------------------------------- experiments
    def evaluate_table_iv(
        self, kinds=None, workers: int = None, shards_per_cell: int = 1
    ) -> TableIVReport:
        """Reproduce Table IV: average cycles and speedups of the solutions.

        With ``workers`` set, the evaluation is fanned out over that many
        worker processes by the campaign engine; ``shards_per_cell=1`` (the
        default) keeps each solution's measurement a single simulator run, so
        the resulting report is bit-identical to the serial path.
        """
        kinds = kinds or (
            SolutionKind.METHOD1,
            SolutionKind.SOFTWARE,
            SolutionKind.METHOD1_DUMMY,
        )
        if workers is not None and workers > 1:
            from repro.core.campaign import run_campaign, table_iv_cells

            cells = table_iv_cells(
                kinds=kinds,
                num_samples=self.num_samples,
                repetitions=self.repetitions,
                seed=self.seed,
                operand_classes=self.operand_classes,
                rocket_config=self.rocket_config,
                verify_functionally=self.verify_functionally,
                solutions=self.solutions,
                workload=self.workload,
                fmt=self.fmt,
                op=self.operation,
            )
            return run_campaign(
                cells, workers=workers, shards_per_cell=shards_per_cell
            ).table_iv()
        report = TableIVReport(
            num_samples=self.num_samples, baseline_kind=SolutionKind.SOFTWARE
        )
        for kind in kinds:
            run = self.run_cycle_accurate(kind)
            report.reports[kind] = run.cycle_report
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
