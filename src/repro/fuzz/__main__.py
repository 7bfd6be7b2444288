"""Command-line entry point for differential fuzz campaigns.

Typical runs::

    # default: 512 vectors, method1, spike+rocket+gem5, dual oracles
    PYTHONPATH=src python -m repro.fuzz --seed 2018 --budget 512

    # CI smoke: fixed seed, wall-clock capped
    PYTHONPATH=src python -m repro.fuzz --seed 2018 --budget 512 --time-limit 60

    # fuzz around one workload's operand distribution
    PYTHONPATH=src python -m repro.fuzz --budget 256 --workload carry-stress

    # replay a recorded reproducer from a previous --json report
    PYTHONPATH=src python -m repro.fuzz --replay fuzz_report.json

Exit status is non-zero when any divergence, oracle disagreement or check
failure was found (or a replayed reproducer still fails), so the command
slots directly into CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.campaign import positive_int
from repro.errors import ConfigurationError
from repro.fuzz.engine import (
    FuzzCampaign,
    FuzzConfig,
    Reproducer,
    replay,
)
from repro.testgen.config import SolutionKind


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--seed", type=int, default=2018,
                        help="campaign seed (the whole run is a pure function of it)")
    parser.add_argument("--budget", type=positive_int, default=512,
                        help="total vectors to simulate (default 512)")
    parser.add_argument("--batch-size", type=positive_int, default=64,
                        help="vectors per generated test program (default 64)")
    parser.add_argument(
        "--solution", default=SolutionKind.METHOD1,
        choices=SolutionKind.ALL,
        help="solution kind to fuzz (default method1)",
    )
    parser.add_argument(
        "--workload", default=None,
        help="seed the corpus from one registered workload "
             "(default: database classes + every registered workload)",
    )
    parser.add_argument(
        "--format", default="decimal64", dest="fmt", metavar="NAME",
        help="interchange format to fuzz: decimal64 (default) or decimal128 "
             "(mutator bounds, corpus and oracle contexts all follow; "
             "docs/formats.md)",
    )
    parser.add_argument(
        "--op", default="multiply", dest="operation", metavar="NAME",
        help="operation to fuzz: multiply (default), add, subtract or fma "
             "(aliases mul/sub/mac accepted; kernels, corpus shape and "
             "oracles all follow; docs/operations.md)",
    )
    parser.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock cap in seconds (checked between batches)")
    parser.add_argument("--max-failures", type=positive_int, default=3,
                        help="stop after this many distinct failures (default 3)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="record failing batches without shrinking them")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the campaign report (with reproducers) as JSON")
    parser.add_argument(
        "--replay", metavar="PATH", default=None,
        help="replay the reproducers recorded in a --json report and exit",
    )
    return parser


def _replay_report(path: str, parser) -> int:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        parser.error(f"--replay {path}: {error}")
    if not isinstance(data, dict) or not isinstance(data.get("failures"), list):
        parser.error(
            f"--replay {path}: not a fuzz report (expected a JSON object "
            "with a 'failures' list, as --json writes)"
        )
    # Check every entry before the first replay runs.
    reproducers = []
    for index, item in enumerate(data["failures"]):
        try:
            reproducers.append(Reproducer.from_json(item))
        except ConfigurationError as error:
            parser.error(f"--replay {path}: failure {index}: {error}")
    if not reproducers:
        print(f"{path}: no recorded failures to replay")
        return 0
    still_failing = 0
    for reproducer in reproducers:
        outcome = replay(reproducer)
        status = "still fails" if outcome.failed else "no longer fails"
        if outcome.failed:
            still_failing += 1
        print(
            f"[{reproducer.kind}] batch {reproducer.batch_index} "
            f"({len(reproducer.vectors)} vector(s)): {status}"
        )
    return 1 if still_failing else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replay:
        return _replay_report(args.replay, parser)

    from repro.decnumber.formats import resolve_format_name
    from repro.errors import DecimalError

    try:
        fmt = resolve_format_name(args.fmt)
    except DecimalError as error:
        parser.error(str(error))
    from repro.decnumber.operations import resolve_operation_name

    try:
        operation = resolve_operation_name(args.operation)
    except DecimalError as error:
        parser.error(str(error))
    if args.workload is not None:
        from repro.workloads import get_workload

        workload = get_workload(args.workload)  # raises with suggestions
        if not workload.supports_format(fmt):
            parser.error(
                f"workload {args.workload!r} does not support format "
                f"{fmt!r} (declares {workload.formats})"
            )
        if not workload.supports_operation(operation):
            parser.error(
                f"workload {args.workload!r} does not support operation "
                f"{operation!r} (declares {workload.operations}); see "
                "docs/operations.md"
            )
    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        batch_size=args.batch_size,
        solution=args.solution,
        workload=args.workload,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        time_limit=args.time_limit,
        fmt=fmt,
        operation=operation,
    )
    report = FuzzCampaign(config).run()
    print(report.describe())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_summary(), handle, indent=2)
            handle.write("\n")
        print(f"report -> {os.path.abspath(args.json)}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
