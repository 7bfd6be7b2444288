"""The coverage-guided differential fuzz campaign engine.

A campaign is a pure function of its :class:`FuzzConfig`: the corpus is
seeded deterministically from the verification database's operand classes and
the registered workloads, batches are generated by seeded mutation
(:mod:`repro.fuzz.mutate`) steered by :class:`~repro.verification.coverage.
CoverageTracker` feedback toward unhit result conditions, and every batch
runs as one differential campaign shard
(:func:`repro.core.evaluation.run_solution_shard`): spike, Rocket and gem5
diffed vector by vector, with the dual-oracle checker attached
(:mod:`repro.verification.differential`).  A campaign keeps one warm
:class:`~repro.sim.batch.BatchRunner`, so its batches of one size link once.
Any failing batch — cross-model divergence, kernel-vs-oracle mismatch, or
the two oracles disagreeing with each other — is shrunk
(:mod:`repro.fuzz.shrink`) to a minimal :class:`Reproducer` carrying the
campaign seed for replay.

Re-running the same config reproduces the same batches, the same coverage
trajectory and the same failures; :func:`replay` re-executes a recorded
reproducer directly, on a fresh runner.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core.campaign import CampaignCell
from repro.core.evaluation import ShardRunOutcome, run_solution_shard
from repro.core.solution import standard_solutions
from repro.decnumber.formats import get_format, resolve_format_name
from repro.decnumber.number import DecNumber
from repro.errors import ConfigurationError, DecimalError
from repro.fuzz.mutate import choose_mutator, mutators_for_format
from repro.fuzz.shrink import shrink_failure
from repro.rocket.config import RocketConfig
from repro.sim.batch import BatchRunner
from repro.testgen.config import SolutionKind
from repro.verification.coverage import CoverageTracker
from repro.verification.database import (
    OperandClass,
    VerificationDatabase,
    VerificationVector,
)


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that determines a campaign (campaigns are pure functions)."""

    seed: int = 2018
    #: Total number of vectors to simulate across all batches.
    budget: int = 512
    #: Vectors per generated test program (one co-simulation each).
    batch_size: int = 64
    #: Solution kind to fuzz (must be verifiable for the oracle check).
    solution: str = SolutionKind.METHOD1
    #: Optional single workload whose vectors seed the corpus; None seeds
    #: from the database classes plus every registered workload.
    workload: str = None
    #: Corpus seeds drawn per operand class and per registered workload.
    corpus_per_class: int = 2
    corpus_per_workload: int = 3
    #: Shrink failing batches to minimal reproducers.
    shrink: bool = True
    #: Stop after this many distinct failures (the campaign is degenerate
    #: beyond that point — one bug usually fails every batch).
    max_failures: int = 3
    #: Optional wall-clock cap in seconds, checked between batches.
    time_limit: float = None
    #: Interchange format the campaign fuzzes: selects the kernels, the
    #: mutator bounds, the corpus distributions and the oracle contexts.
    fmt: str = "decimal64"
    #: Operation the campaign fuzzes (multiply/add/subtract/fma): selects
    #: the kernels, the corpus shape (pairs vs triples) and the oracles.
    operation: str = "multiply"

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ConfigurationError("fuzz budget must be at least 1")
        if self.batch_size < 1:
            raise ConfigurationError("fuzz batch_size must be at least 1")
        if self.solution not in SolutionKind.ALL:
            raise ConfigurationError(
                f"unknown solution kind {self.solution!r} "
                f"(choose from {SolutionKind.ALL})"
            )
        if self.max_failures < 1:
            raise ConfigurationError("max_failures must be at least 1")
        try:
            object.__setattr__(self, "fmt", resolve_format_name(self.fmt))
        except DecimalError as error:
            raise ConfigurationError(str(error)) from None
        from repro.decnumber.operations import resolve_operation_name

        try:
            object.__setattr__(
                self, "operation", resolve_operation_name(self.operation)
            )
        except DecimalError as error:
            raise ConfigurationError(str(error)) from None


# ------------------------------------------------------------- serialization
def vector_to_json(vector: VerificationVector) -> dict:
    """JSON-ready form of one vector (coefficients as strings: 16 digits)."""
    def operand(value: DecNumber) -> dict:
        return {
            "sign": value.sign,
            "coefficient": str(value.coefficient),
            "exponent": value.exponent,
            "kind": value.kind,
        }

    data = {
        "x": operand(vector.x),
        "y": operand(vector.y),
        "operand_class": vector.operand_class,
        "index": vector.index,
    }
    if getattr(vector, "z", None) is not None:
        data["z"] = operand(vector.z)
    return data


def vector_from_json(data: dict) -> VerificationVector:
    """Inverse of :func:`vector_to_json`."""
    def operand(item: dict) -> DecNumber:
        return DecNumber(
            item["sign"], int(item["coefficient"]), item["exponent"],
            item.get("kind", "finite"),
        )

    return VerificationVector(
        x=operand(data["x"]),
        y=operand(data["y"]),
        operand_class=data["operand_class"],
        index=data.get("index", 0),
        z=operand(data["z"]) if "z" in data else None,
    )


#: Fields every recorded failure carries, with their JSON types.
_REQUIRED_FIELDS = {
    "kind": str,
    "description": str,
    "vectors": list,
    "campaign_seed": int,
    "batch_index": int,
    "solution": str,
}


@dataclass
class Reproducer:
    """A recorded, replayable failure: minimal vectors + campaign context."""

    kind: str                    # "divergence" | "oracle-disagreement" | "check-failure"
    description: str
    vectors: list                # shrunk VerificationVector list
    campaign_seed: int
    batch_index: int
    solution: str
    workload: str = None
    original_count: int = 0      # failing vectors before shrinking
    fmt: str = "decimal64"
    operation: str = "multiply"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "vectors": [vector_to_json(vector) for vector in self.vectors],
            "campaign_seed": self.campaign_seed,
            "batch_index": self.batch_index,
            "solution": self.solution,
            "workload": self.workload,
            "original_count": self.original_count,
            "fmt": self.fmt,
            "operation": self.operation,
        }

    @classmethod
    def from_json(cls, data) -> "Reproducer":
        """Parse one ``failures`` entry of a report, checking every field.

        A malformed entry raises :class:`ConfigurationError` naming the
        field, so a whole report can be checked before anything replays.
        That includes an operand the entry's format cannot represent
        exactly: the kernel would run on its rounded encoding while the
        oracle checks the value as written.
        Older reports also carry a "models" list; it is not read, since
        every replay runs all three models.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"expected a JSON object, got {type(data).__name__}"
            )
        for name, kind in _REQUIRED_FIELDS.items():
            if name not in data:
                raise ConfigurationError(f"missing field {name!r}")
            if not isinstance(data[name], kind) or isinstance(data[name], bool):
                raise ConfigurationError(
                    f"field {name!r}: expected {kind.__name__}, "
                    f"got {data[name]!r}"
                )
        if data["solution"] not in SolutionKind.ALL:
            raise ConfigurationError(
                f"field 'solution': unknown solution kind "
                f"{data['solution']!r} (choose from {SolutionKind.ALL})"
            )
        from repro.decnumber.operations import (
            get_operation,
            resolve_operation_name,
        )
        from repro.workloads import get_workload

        try:
            fmt = resolve_format_name(data.get("fmt", "decimal64"))
        except DecimalError as error:
            raise ConfigurationError(f"field 'fmt': {error}") from None
        try:
            operation = resolve_operation_name(
                data.get("operation", "multiply")
            )
        except DecimalError as error:
            raise ConfigurationError(f"field 'operation': {error}") from None
        if data.get("workload") is not None:
            try:
                workload = get_workload(data["workload"])
            except ConfigurationError as error:
                raise ConfigurationError(f"field 'workload': {error}") from None
            if not (workload.supports_format(fmt)
                    and workload.supports_operation(operation)):
                raise ConfigurationError(
                    f"field 'workload': {workload.name!r} does not support "
                    f"{fmt} {operation}"
                )
        if not data["vectors"]:
            raise ConfigurationError("field 'vectors': no vectors to replay")
        arity = get_operation(operation).arity
        spec = get_format(fmt)
        vectors = []
        for index, item in enumerate(data["vectors"]):
            try:
                vector = vector_from_json(item)
            except (AttributeError, DecimalError, KeyError, TypeError,
                    ValueError) as error:
                raise ConfigurationError(
                    f"field 'vectors': vector {index} is malformed "
                    f"({type(error).__name__}: {error})"
                ) from None
            if len(vector.operands) != arity:
                raise ConfigurationError(
                    f"field 'vectors': vector {index} carries "
                    f"{len(vector.operands)} operands but operation "
                    f"{operation!r} takes {arity}"
                )
            # The round trip is compared as decimal strings, which keep every
            # digit and the exponent of a finite value and what a special
            # value carries (sign, kind, NaN payload).
            for name, operand in zip("xyz", vector.operands):
                where = f"field 'vectors': vector {index} operand {name}"
                try:
                    stored = str(spec.decode(spec.encode(operand)))
                except (DecimalError, TypeError, ValueError) as error:
                    raise ConfigurationError(
                        f"{where} {operand!r} cannot be encoded in {fmt} "
                        f"({type(error).__name__}: {error})"
                    ) from None
                if stored != str(operand):
                    raise ConfigurationError(
                        f"{where} {operand} is not representable in {fmt}: "
                        f"it encodes as {stored}"
                    )
            vectors.append(vector)
        return cls(
            kind=data["kind"],
            description=data["description"],
            vectors=vectors,
            campaign_seed=data["campaign_seed"],
            batch_index=data["batch_index"],
            solution=data["solution"],
            workload=data.get("workload"),
            original_count=data.get("original_count", 0),
            fmt=fmt,
            operation=operation,
        )


def replay(reproducer: Reproducer, rocket_config=None) -> ShardRunOutcome:
    """Re-run a reproducer's vectors as one differential shard.

    The shard runs on a fresh runner, the cold reference.  The failure the
    campaign recorded should make the returned outcome's ``failed`` true
    again unless the underlying bug was fixed.
    """
    config = FuzzConfig(
        seed=reproducer.campaign_seed,
        solution=reproducer.solution,
        workload=reproducer.workload,
        fmt=reproducer.fmt,
        operation=reproducer.operation,
    )
    return FuzzCampaign(config, rocket_config).co_simulate(reproducer.vectors)


@dataclass
class FuzzReport:
    """Outcome of one campaign: coverage reached + failures found."""

    config: FuzzConfig
    batches_run: int = 0
    vectors_run: int = 0
    corpus_size: int = 0
    coverage: CoverageTracker = None
    failures: list = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Batch indices that extended condition coverage (steering progress).
    coverage_events: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [
            (
                f"fuzz campaign: seed {self.config.seed}, "
                f"{self.vectors_run}/{self.config.budget} vectors in "
                f"{self.batches_run} batches, solution {self.config.solution}"
                + (f", format {self.config.fmt}" if self.config.fmt != "decimal64" else "")
                + (
                    f", operation {self.config.operation}"
                    if self.config.operation != "multiply"
                    else ""
                )
                + (f", workload {self.config.workload}" if self.config.workload else "")
            ),
            f"corpus grew to {self.corpus_size} entries; "
            f"wall clock {self.wall_seconds:.1f}s",
        ]
        if self.coverage is not None:
            covered = self.coverage.covered_conditions()
            missing = sorted(
                set(CoverageTracker.CONDITIONS) - covered
            )
            lines.append(
                f"conditions covered: {len(covered)}/"
                f"{len(CoverageTracker.CONDITIONS)}"
                + (f" (missing: {', '.join(missing)})" if missing else "")
            )
        if self.ok:
            lines.append("no divergences, oracle disagreements or check failures")
        else:
            lines.append(f"{len(self.failures)} failure(s):")
            for failure in self.failures:
                lines.append(
                    f"  [{failure.kind}] batch {failure.batch_index}, "
                    f"shrunk {failure.original_count} -> "
                    f"{len(failure.vectors)} vector(s): {failure.description}"
                )
                for vector in failure.vectors:
                    from repro.verification.checker import render_application

                    lines.append(
                        f"    {render_application(failure.operation, *vector.operands)}"
                        f" [{vector.operand_class}]"
                    )
        return "\n".join(lines)

    def to_summary(self) -> dict:
        """JSON-ready summary (the ``--json`` output of the CLI)."""
        coverage = {}
        if self.coverage is not None:
            coverage = {
                "conditions": {
                    name: self.coverage.condition_counts.get(name, 0)
                    for name in CoverageTracker.CONDITIONS
                },
                "classes": dict(self.coverage.class_counts),
            }
        return {
            "seed": self.config.seed,
            "budget": self.config.budget,
            "batch_size": self.config.batch_size,
            "solution": self.config.solution,
            "workload": self.config.workload,
            "fmt": self.config.fmt,
            "operation": self.config.operation,
            "batches_run": self.batches_run,
            "vectors_run": self.vectors_run,
            "corpus_size": self.corpus_size,
            "wall_seconds": round(self.wall_seconds, 3),
            "coverage": coverage,
            "coverage_events": list(self.coverage_events),
            "failures": [failure.to_json() for failure in self.failures],
        }


class FuzzCampaign:
    """Coverage-guided differential fuzzing of one solution, format and op.

    The campaign is one differential :class:`~repro.core.campaign.
    CampaignCell` of ``budget`` vectors, operand pairs or fma triples; each
    batch runs as one shard of it on the campaign's warm
    :class:`~repro.sim.batch.BatchRunner`.
    """

    def __init__(self, config: FuzzConfig = None, rocket_config=None) -> None:
        from repro.decnumber.operations import get_operation

        if config is None:
            config = FuzzConfig()
        self.config = config
        self.mutators = mutators_for_format(config.fmt)
        self.arity = get_operation(config.operation).arity
        self.cell = CampaignCell(
            solution=standard_solutions()[config.solution],
            num_samples=config.budget,
            seed=config.seed,
            rocket_config=(
                RocketConfig() if rocket_config is None else rocket_config
            ),
            workload=config.workload,
            differential=True,
            fmt=config.fmt,
            op=config.operation,
        )
        self.runner = BatchRunner()

    def co_simulate(self, vectors) -> ShardRunOutcome:
        """One differential shard over ``vectors`` on the warm runner."""
        return run_solution_shard(self.cell, vectors, runner=self.runner)

    # ---------------------------------------------------------------- corpus
    def seed_corpus(self) -> list:
        """Deterministic seed inputs: database classes + registered workloads.

        Classes come from the format-sized database; workload seeds come
        from every registered workload that supports the campaign's format.
        With ``config.workload`` set, only that workload contributes (plus
        one pair per database class so mutators always have specials and
        extremes to start from).
        """
        config = self.config
        corpus = []
        database = VerificationDatabase(config.seed, fmt=config.fmt)
        per_class = max(1, config.corpus_per_class)
        for name in OperandClass.ALL:
            corpus.extend(
                vector.operands
                for vector in database.generate(
                    name, per_class, operation=config.operation
                )
            )
        from repro.workloads import (
            get_workload,
            workload_vectors,
            workloads_for_format,
        )

        if config.workload is not None:
            # The campaign's cell already rejected a requested workload
            # that does not support the format or the operation.
            workloads = {config.workload: get_workload(config.workload)}
        else:
            workloads = {
                name: workload
                for name, workload in workloads_for_format(config.fmt).items()
                if workload.supports_operation(config.operation)
            }
        for name in sorted(workloads):
            corpus.extend(
                vector.operands
                for vector in workload_vectors(
                    workloads[name], max(1, config.corpus_per_workload),
                    config.seed, config.fmt, operation=config.operation,
                )
            )
        return corpus

    # ------------------------------------------------------------ generation
    def generate_batch(
        self, rng: random.Random, tracker: CoverageTracker, corpus: list,
        size: int, start_index: int,
    ) -> list:
        """One batch of mutated vectors, steered toward unhit conditions.

        Every candidate's golden result conditions are computed host-side
        when it is recorded in the tracker; candidates that light up a
        previously-unhit condition join the corpus (the coverage feedback
        loop).
        """
        known = set(CoverageTracker.CONDITIONS)
        ternary = self.arity == 3
        batch = []
        for offset in range(size):
            unhit = known - tracker.covered_conditions()
            mutator = choose_mutator(rng, unhit, self.mutators)
            operands = rng.choice(corpus)
            if rng.random() < 0.2 and len(corpus) > 1:
                # Crossover: swap one operand with another entry's.  Same
                # two rng draws as the historical pair-only path, so the
                # binary-operation batch stream stays bit-identical.
                other = rng.choice(corpus)
                if rng.random() < 0.5:
                    operands = operands[:1] + (other[1],) + operands[2:]
                else:
                    operands = (other[0],) + operands[1:]
            if ternary:
                # Mutate a rng-chosen pair of the triple; the remaining
                # operand rides along unchanged.
                lo, hi = ((0, 1), (0, 2), (1, 2))[rng.randrange(3)]
                mutated = list(operands)
                mutated[lo], mutated[hi] = mutator(
                    rng, operands[lo], operands[hi]
                )
                operands = tuple(mutated)
            else:
                operands = mutator(rng, *operands)
            vector = VerificationVector(
                x=operands[0], y=operands[1],
                operand_class=f"fuzz:{mutator.name}",
                index=start_index + offset,
                z=operands[2] if ternary else None,
            )
            before = tracker.covered_conditions()
            conditions = tracker.record(vector)
            if conditions - before:
                corpus.append(tuple(operands))
            batch.append(vector)
        return batch

    # ----------------------------------------------------------------- runs
    @staticmethod
    def _findings(outcome: ShardRunOutcome) -> tuple:
        """``(kind, items)`` per failure class, in classification order."""
        check = outcome.check_report
        return (
            ("divergence", outcome.divergences),
            ("oracle-disagreement", getattr(check, "oracle_disagreements", [])),
            ("check-failure", getattr(check, "failures", [])),
        )

    def _failing_vectors(self, batch, outcome: ShardRunOutcome) -> list:
        indices = {
            item.index for _, items in self._findings(outcome) for item in items
        }
        failing = [vector for vector in batch if vector.index in indices]
        return failing if failing else list(batch)

    def run(self) -> FuzzReport:
        """Run the campaign to its vector budget (or time limit)."""
        config = self.config
        started = time.perf_counter()
        rng = random.Random(config.seed)
        corpus = self.seed_corpus()
        from repro.verification.reference import GoldenReference

        tracker = CoverageTracker(
            GoldenReference(operation=config.operation, precision=config.fmt)
        )
        report = FuzzReport(config=config, coverage=tracker)

        batch_index = 0
        while report.vectors_run < config.budget:
            if (
                config.time_limit is not None
                and time.perf_counter() - started >= config.time_limit
            ):
                break
            if len(report.failures) >= config.max_failures:
                break
            size = min(config.batch_size, config.budget - report.vectors_run)
            covered_before = tracker.covered_conditions()
            batch = self.generate_batch(
                rng, tracker, corpus, size, report.vectors_run
            )
            outcome = self.co_simulate(batch)
            report.batches_run += 1
            report.vectors_run += len(batch)
            if tracker.covered_conditions() - covered_before:
                report.coverage_events.append(batch_index)
            if outcome.failed:
                report.failures.append(
                    self._record_failure(batch, outcome, batch_index)
                )
            batch_index += 1
        report.corpus_size = len(corpus)
        report.wall_seconds = time.perf_counter() - started
        return report

    def _record_failure(self, batch, outcome, batch_index: int) -> Reproducer:
        config = self.config
        failing = self._failing_vectors(batch, outcome)

        described = outcome
        if config.shrink:
            # The shrinker only keeps subsets its predicate confirmed
            # failing, so the last failing outcome it saw describes the
            # shrunk set — no extra co-simulation needed afterwards.
            last_failing = {}

            def still_fails(vectors) -> bool:
                result = self.co_simulate(vectors)
                if result.failed:
                    last_failing["vectors"] = list(vectors)
                    last_failing["outcome"] = result
                return result.failed

            shrunk = shrink_failure(failing, still_fails)
            if last_failing.get("vectors") == list(shrunk):
                described = last_failing["outcome"]
        else:
            shrunk = failing
        kind, items = next(
            (kind, items) for kind, items in self._findings(described) if items
        )
        return Reproducer(
            kind=kind,
            description=items[0].describe(),
            vectors=shrunk,
            campaign_seed=config.seed,
            batch_index=batch_index,
            solution=config.solution,
            workload=config.workload,
            original_count=len(failing),
            fmt=config.fmt,
            operation=config.operation,
        )


def run_fuzz_campaign(config: FuzzConfig = None, **overrides) -> FuzzReport:
    """Convenience one-shot: build a campaign from config/overrides and run."""
    if config is None:
        config = FuzzConfig(**overrides)
    elif overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return FuzzCampaign(config).run()
