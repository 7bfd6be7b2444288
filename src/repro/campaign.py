"""Command-line entry point for paper-scale evaluation campaigns.

Builds one campaign grid from the flags (:func:`build_cells`), runs it
through the sharded multiprocess engine (:mod:`repro.core.campaign`) and
prints the merged tables plus a campaign summary.  Typical paper-scale invocation::

    PYTHONPATH=src python -m repro.campaign --samples 8000 --workers 4

With the default ``--shards-per-cell 1`` the output is bit-identical to the
serial ``EvaluationFramework.evaluate_table_iv`` at the same seed; raise it
to shard each solution's vector set across workers too (see
docs/campaigns.md for the determinism trade-off).

``--workload NAME[,NAME...]`` swaps (or multiplies) the operand scenario:
each registered workload (docs/workloads.md, ``--list-workloads``) becomes
its own set of cells, rendered as per-workload tables plus a cross-workload
speedup comparison::

    PYTHONPATH=src python -m repro.campaign --samples 2000 --workers 4 \\
        --workload telco-billing,carry-stress,special-values

``--format NAME[,NAME...]`` adds the interchange-format axis
(docs/formats.md): each named format gets its own kernels, accelerator
sizing, operand distributions and oracle contexts.  With ``--differential``
and no explicit workload list, every registered workload that supports the
paper's multiply under a requested format is co-simulated across
spike/rocket/gem5::

    PYTHONPATH=src python -m repro.campaign --samples 200 --workers 4 \\
        --format decimal64,decimal128 --differential

``--op NAME[,NAME...]`` adds the operation axis (docs/operations.md):
every requested decimal operation (multiply/add/subtract/fma, aliases
mul/sub/mac) is measured — and, with ``--differential``, co-simulated and
dual-oracle checked — per format, rendered as one speedup table per
(operation, format) group plus a cross-operation comparison::

    PYTHONPATH=src python -m repro.campaign --samples 200 --workers 4 \\
        --op mul,add,fma --format decimal64,decimal128 --differential

``--pipeline-sweep`` runs the microarchitecture design-space study
(docs/pipeline.md): every staged-pipeline (depth × width) variant of
Method-1 — plus the software baseline — is measured per requested format
and operation, and each group renders a cycles-vs-area Pareto frontier::

    PYTHONPATH=src python -m repro.campaign --samples 200 --workers 4 \\
        --pipeline-sweep --depths 1,2,4,8 --widths 1,2,4 --differential
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from repro.core import reporting
from repro.core.campaign import (
    TABLE_IV_KINDS,
    grid_cells,
    run_campaign,
    workload_fits,
)
from repro.decnumber.formats import resolve_format_name
from repro.decnumber.operations import resolve_operation_name
from repro.errors import ReproError
from repro.testgen.config import SolutionKind
from repro.verification.database import OperandClass
from repro.workloads import get_workload, registered_workloads


def _parse_names(flag: str, noun: str, resolve):
    """A ``--flag a,b,c`` parser: canonical names via ``resolve``, no repeats."""
    def parse(text: str):
        names = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                names.append(resolve(part))
            except ReproError as error:  # keeps did-you-mean hints
                raise argparse.ArgumentTypeError(str(error)) from None
        if not names:
            raise argparse.ArgumentTypeError(
                f"{flag} needs at least one {noun} name"
            )
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise argparse.ArgumentTypeError(
                f"duplicate {noun} name(s): {', '.join(sorted(duplicates))}"
            )
        return tuple(names)

    return parse


def positive_int(text: str) -> int:
    """argparse ``type`` for a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_positive_ints(flag: str):
    def parse(text: str):
        values = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                value = int(part)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"{flag} values must be integers, got {part!r}"
                ) from None
            if value < 1:
                raise argparse.ArgumentTypeError(
                    f"{flag} values must be positive, got {value}"
                )
            values.append(value)
        if not values:
            raise argparse.ArgumentTypeError(f"{flag} needs at least one value")
        duplicates = {value for value in values if values.count(value) > 1}
        if duplicates:
            raise argparse.ArgumentTypeError(
                f"duplicate {flag} value(s): "
                f"{', '.join(str(v) for v in sorted(duplicates))}"
            )
        return tuple(values)

    return parse


def _parse_kinds(text: str):
    kinds = tuple(part.strip() for part in text.split(",") if part.strip())
    for kind in kinds:
        if kind not in SolutionKind.ALL:
            raise argparse.ArgumentTypeError(
                f"unknown solution kind {kind!r} (choose from {SolutionKind.ALL})"
            )
    return kinds


def _parse_classes(text: str):
    classes = tuple(part.strip() for part in text.split(",") if part.strip())
    for name in classes:
        if name not in OperandClass.ALL:
            raise argparse.ArgumentTypeError(
                f"unknown operand class {name!r} (choose from {OperandClass.ALL})"
            )
    return classes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--samples", type=positive_int, default=None,
        help="samples per cell (default: $REPRO_BENCH_SAMPLES, else 200; "
             "paper scale 8000)",
    )
    parser.add_argument(
        "--workers", type=positive_int, default=os.cpu_count() or 1,
        help="worker processes (default: CPU count; 1 = serial in-process)",
    )
    parser.add_argument(
        "--shards-per-cell", type=positive_int, default=1,
        help="contiguous shards per cell (1 = bit-identical to serial)",
    )
    parser.add_argument("--repetitions", type=positive_int, default=1,
                        help="kernel repetitions per sample")
    parser.add_argument("--seed", type=int, default=2018,
                        help="operand-database seed")
    parser.add_argument(
        "--kinds", type=_parse_kinds, default=None,
        help="comma-separated solution kinds (default: all three Table IV rows)",
    )
    parser.add_argument(
        "--classes", type=_parse_classes, default=None,
        help="comma-separated operand classes (default: the Table IV mix; "
             "mutually exclusive with --workload)",
    )
    parser.add_argument(
        "--workload",
        type=_parse_names("--workload", "workload",
                          lambda name: get_workload(name).name),
        default=None, metavar="NAME[,NAME...]",
        help=(
            "registered workload scenario(s) to evaluate (see "
            "--list-workloads and docs/workloads.md); more than one name "
            "fans (solution x workload) cells across the shards and renders "
            "per-workload tables plus a cross-workload speedup comparison"
        ),
    )
    parser.add_argument(
        "--list-workloads", action="store_true",
        help="list registered workloads and exit",
    )
    parser.add_argument(
        "--format", type=_parse_names("--format", "format", resolve_format_name),
        default=None, metavar="NAME[,NAME...]",
        dest="formats",
        help=(
            "interchange format(s) to evaluate: decimal64 and/or decimal128 "
            "(docs/formats.md); more than one name fans (format x solution) "
            "cells and renders per-format speedup tables.  Combined with "
            "--differential and no explicit --workload, every registered "
            "format-compatible workload is co-simulated under each format"
        ),
    )
    parser.add_argument(
        "--op", type=_parse_names("--op", "operation", resolve_operation_name),
        default=None, metavar="NAME[,NAME...]",
        dest="operations",
        help=(
            "decimal operation(s) to evaluate: multiply, add, subtract "
            "and/or fma (aliases mul/sub/mac; docs/operations.md); fans "
            "(operation x format x solution) cells and renders one speedup "
            "table per (operation, format) group plus a cross-operation "
            "comparison.  Defaults to the paper's multiply-only campaign"
        ),
    )
    parser.add_argument(
        "--pipeline-sweep", action="store_true",
        help=(
            "microarchitecture design-space study (docs/pipeline.md): "
            "measure every staged-pipeline (depth x width) Method-1 "
            "variant plus the software baseline per format/operation and "
            "render a cycles-vs-area Pareto frontier per group"
        ),
    )
    parser.add_argument(
        "--depths", type=_parse_positive_ints("--depths"), default=(1, 2, 4, 8),
        metavar="N[,N...]",
        help="pipeline stage depths to sweep (default 1,2,4,8; "
             "requires --pipeline-sweep)",
    )
    parser.add_argument(
        "--widths", type=_parse_positive_ints("--widths"), default=(1, 2, 4),
        metavar="N[,N...]",
        help="issue widths to sweep (default 1,2,4; requires --pipeline-sweep)",
    )
    parser.add_argument(
        "--differential", action="store_true",
        help=(
            "cross-model differential mode: co-simulate every cell on "
            "spike+rocket+gem5 with the dual (decnumber + stdlib decimal) "
            "oracle, and render the divergence/coverage table; the exit "
            "status is non-zero on any divergence (docs/verification.md)"
        ),
    )
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the golden check of the measured run")
    parser.add_argument(
        "--mp-start-method", default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method (default: platform default)",
    )
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the campaign summary as JSON")
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help=(
            "content-addressed result cache directory (docs/service.md): "
            "cells already stored under the same inputs + code version are "
            "served from disk instead of re-simulated, and fresh cells are "
            "persisted for the next run.  The same store backs the "
            "long-running service (python -m repro.serve)"
        ),
    )
    return parser


def _render_cache_line(result, cache) -> str:
    """One-line cache accounting printed under the campaign summary."""
    total = result.cache_hits + result.cache_misses
    rate = result.cache_hits / total if total else 0.0
    return (
        f"result cache: {result.cache_hits}/{total} cells served from "
        f"{cache.path} ({rate:.0%} hit rate, {len(cache)} entries stored)"
    )


def build_cells(args) -> list:
    """The campaign grid a parsed command line asks for."""
    ops = args.operations or ("multiply",)
    formats = args.formats or ("decimal64",)
    workloads = args.workload or (None,)
    if (args.formats and args.differential and args.operations is None
            and not args.workload and args.classes is None
            and not args.pipeline_sweep):
        # The "does the whole pipeline generalise?" sweep: every registered
        # workload that fits the requested formats and operations.  A
        # pipeline sweep always measures the class mix per design point.
        workloads = tuple(sorted(
            name for name, workload in registered_workloads().items()
            if workload_fits(workload, ops, formats)
        ))
    if args.pipeline_sweep:
        # Method-1 staged-pipeline design points plus the software baseline
        # as the zero-hardware reference.
        solutions = (SolutionKind.SOFTWARE,
                     *itertools.product(args.depths, args.widths))
    elif args.operations is not None:
        # The dummy row measures multiply-shaped stub traffic and adds
        # nothing to a per-operation comparison.
        solutions = args.kinds or (SolutionKind.METHOD1, SolutionKind.SOFTWARE)
    else:
        solutions = args.kinds or TABLE_IV_KINDS
    return grid_cells(
        num_samples=args.samples,
        ops=ops,
        formats=formats,
        workloads=workloads,
        solutions=solutions,
        repetitions=args.repetitions,
        seed=args.seed,
        operand_classes=(
            args.classes if args.classes is not None
            else OperandClass.TABLE_IV_MIX
        ),
        verify_functionally=not args.no_verify,
        differential=args.differential,
    )


def _grouping(args) -> tuple:
    """The axes whose groups render as separate tables."""
    if args.operations is not None:
        return ("op", "fmt", "workload")
    if args.formats is not None:
        return ("fmt", "workload")
    return ("workload",) if args.workload else ()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.samples is None:
        # The environment default: a bad value is a usage error naming the
        # variable, as a bad flag is one naming the flag.
        try:
            args.samples = positive_int(
                os.environ.get("REPRO_BENCH_SAMPLES", "200")
            )
        except argparse.ArgumentTypeError as error:
            parser.error(f"REPRO_BENCH_SAMPLES: {error}")
    if args.list_workloads:
        for name, workload in sorted(registered_workloads().items()):
            print(f"{name:<16s} {workload.description}")
        return 0
    if args.workload and args.classes is not None:
        parser.error(
            "--classes and --workload are mutually exclusive: a workload "
            "defines its own operand distribution"
        )
    if args.pipeline_sweep and args.workload:
        parser.error(
            "--pipeline-sweep and --workload are mutually exclusive: the "
            "sweep measures the Table IV operand mix per design point"
        )
    if args.pipeline_sweep and args.kinds:
        parser.error(
            "--pipeline-sweep and --kinds are mutually exclusive: the sweep "
            "defines its own design points (Method-1 variants + baseline)"
        )

    cache = None
    if args.cache_dir:
        from repro.service.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    result = run_campaign(
        build_cells(args),
        workers=args.workers,
        shards_per_cell=args.shards_per_cell,
        mp_start_method=args.mp_start_method,
        cache=cache,
    )
    summary = result.to_summary()
    if args.pipeline_sweep:
        # Per-group Pareto frontiers over (cycles, gate equivalents).
        from repro.core.pareto import frontier_summary

        print(reporting.render_pipeline_frontier(result))
        summary["pipeline_frontier"] = frontier_summary(result)
    else:
        by = _grouping(args)
        tables = result.group(by)
        print(reporting.render_tables(result, by))
        if len(tables) > 1:
            print()
            print(reporting.render_matrix(result, by))
        rows = {
            "/".join(value or "default" for value in key): table.rows()
            for key, table in tables.items()
        }
        # An ungrouped campaign keeps its rows as a flat list.
        summary["table_iv_rows"] = rows if by else rows[""]
    if args.differential:
        print()
        print(reporting.render_differential(result))
    print()
    print(reporting.render_campaign(result))
    if cache is not None:
        print(_render_cache_line(result, cache))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
        print(f"summary -> {os.path.abspath(args.json)}")
    if args.differential and not result.differential_clean:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
