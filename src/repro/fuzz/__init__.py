"""Coverage-guided differential fuzzing of the decimal kernels.

The fuzz subsystem manufactures regression tests instead of enumerating
them: seeded mutation over the verification database's operand classes and
the registered workloads (:mod:`repro.fuzz.mutate`), coverage feedback from
:class:`~repro.verification.coverage.CoverageTracker` steering generation
toward unhit result conditions, cross-model + dual-oracle checking of every
batch as one differential campaign shard
(:func:`repro.core.evaluation.run_solution_shard`), and delta-debugging
shrinks of any failure into a replayable minimal reproducer
(:mod:`repro.fuzz.shrink`).

Run it from the command line::

    PYTHONPATH=src python -m repro.fuzz --seed 2018 --budget 512

or programmatically via :func:`run_fuzz_campaign` / :class:`FuzzCampaign`.
"""

from repro.fuzz.engine import (
    FuzzCampaign,
    FuzzConfig,
    FuzzReport,
    Reproducer,
    replay,
    run_fuzz_campaign,
    vector_from_json,
    vector_to_json,
)
from repro.fuzz.mutate import MUTATORS, MUTATORS_BY_NAME, Mutator, choose_mutator
from repro.fuzz.shrink import ddmin, shrink_failure, simplify_vectors

__all__ = [
    "FuzzCampaign",
    "FuzzConfig",
    "FuzzReport",
    "Reproducer",
    "replay",
    "run_fuzz_campaign",
    "vector_from_json",
    "vector_to_json",
    "MUTATORS",
    "MUTATORS_BY_NAME",
    "Mutator",
    "choose_mutator",
    "ddmin",
    "shrink_failure",
    "simplify_vectors",
]
