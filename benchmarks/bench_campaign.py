"""Campaign-engine scaling benchmark: serial vs sharded multiprocess runs.

Runs the Table IV evaluation twice with the *same shard plan* — once with
``workers=1`` (in-process serial reference) and once fanned out over worker
processes — and appends wall-clock numbers plus the measured speedup to
``BENCH_campaign.json`` at the repository root.  Because the shard plan, not
the scheduling, defines the measurement, the two runs produce identical
merged reports; the benchmark asserts that before recording.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py [--samples N]
        [--workers N] [--shards-per-cell N] [--op mul,add,fma] [--out PATH]

``--op`` switches the measured evaluation to the operation axis
(docs/operations.md): the same serial-vs-sharded comparison over the
``operation_cells`` grid, with per-operation throughput (samples per
simulator-wall second) recorded beside the scaling numbers.

``--pipeline-sweep`` switches it to the microarchitecture design-space
study (docs/pipeline.md): the same serial-vs-sharded comparison over a
grid of staged-pipeline design points (a small depth × width grid by
default), with the per-group Pareto frontier points recorded beside the
scaling numbers.

``--service`` benchmarks the campaign service instead (docs/service.md):
start a live HTTP server against a throwaway content-addressed result
cache, submit the same Table IV campaign twice, and record the cold
(computed) vs warm (100% cache hit) request latency, the warm request's
own hit rate, and whether the two summaries were bit-identical.

The paper-scale acceptance run is ``--samples 8000`` on a >= 4-core host;
``cpu_count`` is recorded with every entry because the achievable speedup is
bounded by the cores actually available.

This is a standalone script (not collected by pytest); CI runs the campaign
CLI with a tiny sample count as a smoke test.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.campaign import positive_int, samples_from_env  # noqa: E402
from repro.core.campaign import (  # noqa: E402
    grid_cells,
    operation_cells,
    run_campaign,
    table_iv_cells,
)
from repro.core.pareto import frontier_summary  # noqa: E402
from repro.testgen.config import SolutionKind  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_campaign.json")


def _reports_identical(a, b) -> bool:
    return all(
        left.per_sample_cycles == right.per_sample_cycles
        and left.hw_cycles_total == right.hw_cycles_total
        and left.icache_hit_rate == right.icache_hit_rate
        and left.dcache_hit_rate == right.dcache_hit_rate
        for left, right in zip(a.reports, b.reports)
    )


def _per_operation_stats(result) -> dict:
    """Per-operation sample throughput over the simulator wall clock."""
    stats = {}
    for report in result.reports:
        entry = stats.setdefault(report.operation, {
            "samples": 0, "sim_wall_seconds": 0.0,
        })
        entry["samples"] += report.num_samples
        entry["sim_wall_seconds"] += report.sim_wall_seconds
    for entry in stats.values():
        wall = entry["sim_wall_seconds"]
        entry["sim_wall_seconds"] = round(wall, 3)
        entry["samples_per_second"] = (
            round(entry["samples"] / wall, 1) if wall else None
        )
    return stats


def run_benchmark(samples: int, workers: int, shards_per_cell: int,
                  workload: str = None, operations=None,
                  pipeline_sweep: bool = False,
                  depths=(1, 2, 4), widths=(1, 2)) -> dict:
    if pipeline_sweep:
        cells = grid_cells(
            num_samples=samples, ops=operations or ("multiply",),
            solutions=(SolutionKind.SOFTWARE, *itertools.product(depths, widths)),
        )
    elif operations:
        cells = operation_cells(
            operations, num_samples=samples,
            workloads=(workload,) if workload else None,
        )
    else:
        cells = table_iv_cells(num_samples=samples, workload=workload)
    serial = run_campaign(cells, workers=1, shards_per_cell=shards_per_cell)
    parallel = run_campaign(cells, workers=workers,
                            shards_per_cell=shards_per_cell)
    if not _reports_identical(serial, parallel):
        raise AssertionError(
            "merged campaign reports diverged between the serial and "
            "parallel runs of the same shard plan — determinism regression"
        )
    speedup = (
        serial.wall_seconds / parallel.wall_seconds if parallel.wall_seconds else 0.0
    )
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "samples": samples,
        "workload": workload,
        "workers": workers,
        "shards_per_cell": shards_per_cell,
        "total_shards": parallel.total_shards,
        "cpu_count": os.cpu_count(),
        "serial_wall_seconds": round(serial.wall_seconds, 3),
        "parallel_wall_seconds": round(parallel.wall_seconds, 3),
        "speedup": round(speedup, 2),
        "sim_wall_seconds": round(parallel.total_sim_wall_seconds, 3),
        "bit_identical_to_serial": _reports_identical(serial, parallel),
    }
    if pipeline_sweep:
        record["pipeline_sweep"] = {
            "depths": list(depths), "widths": list(widths),
        }
        record["pipeline_frontier"] = frontier_summary(parallel)
    elif operations:
        record["operations"] = [str(op) for op in operations]
        record["per_operation"] = _per_operation_stats(parallel)
        record["table_iv_rows"] = {
            f"{op}/{fmt}/{wl or 'default'}": table.rows()
            for (op, fmt, wl), table in
            parallel.group(("op", "fmt", "workload")).items()
        }
    else:
        record["table_iv_rows"] = parallel.table_iv().rows()
    return record


def run_service_benchmark(samples: int, workers: int,
                          shards_per_cell: int) -> dict:
    """Cold-vs-warm latency of the same campaign over the live service."""
    import tempfile

    from repro.service import ResultCache, comparable_summary, serve_in_background
    from repro.service.client import submit_and_wait

    spec = {"samples": samples, "label": "bench"}
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        cache = ResultCache(tmp)
        with serve_in_background(
            cache, workers=workers, shards_per_cell=shards_per_cell
        ) as server:
            started = time.perf_counter()
            cold = submit_and_wait(server.base_url, spec)
            cold_seconds = time.perf_counter() - started
            started = time.perf_counter()
            warm = submit_and_wait(server.base_url, spec)
            warm_seconds = time.perf_counter() - started
    # The warm request's own hit rate; the cache's cumulative counters also
    # hold the cold request's misses.
    hit_rate = warm["cache"]["hits"] / warm["cache"]["cells"]
    identical = comparable_summary(cold["summary"]) == comparable_summary(
        warm["summary"]
    )
    if warm["cache"]["hits"] != warm["cache"]["cells"]:
        raise AssertionError(
            f"warm request was not a 100% cache hit: {warm['cache']}"
        )
    if not identical:
        raise AssertionError(
            "warm summary diverged from the cold run — cache-identity "
            "regression (see docs/service.md)"
        )
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "mode": "service",
        "samples": samples,
        "workers": workers,
        "shards_per_cell": shards_per_cell,
        "cells": cold["cache"]["cells"],
        "cpu_count": os.cpu_count(),
        "cold_wall_seconds": round(cold_seconds, 3),
        "warm_wall_seconds": round(warm_seconds, 3),
        "warm_speedup": round(
            cold_seconds / warm_seconds if warm_seconds else 0.0, 2
        ),
        "cache_hit_rate": round(hit_rate, 4),
        "summaries_identical": identical,
        "table_iv_rows": [
            [cell["solution"], cell["samples"], cell["avg_total_cycles"]]
            for cell in warm["summary"]["cells"]
        ],
    }


def persist(record: dict, path: str) -> dict:
    """Append ``record`` to the benchmark history file and return the doc."""
    document = {"benchmark": "campaign_scaling", "history": []}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                existing = json.load(handle)
            if isinstance(existing.get("history"), list):
                document = existing
        except (json.JSONDecodeError, OSError):
            pass  # corrupt or unreadable history: start fresh
    document["history"].append(record)
    document["latest"] = record
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--samples", type=positive_int, default=None,
        help="samples per cell (default: $REPRO_BENCH_SAMPLES, else 800; "
             "paper scale 8000)",
    )
    parser.add_argument(
        "--workers", type=positive_int, default=min(4, os.cpu_count() or 1),
        help="worker processes for the parallel run (default: min(4, cores))",
    )
    parser.add_argument(
        "--shards-per-cell", type=positive_int, default=None,
        help="shards per cell (default: same as --workers)",
    )
    parser.add_argument(
        "--workload", default=None,
        help="registered workload name to draw operands from "
             "(default: the legacy Table IV class mix)",
    )
    parser.add_argument(
        "--op", default=None, metavar="NAME[,NAME...]", dest="operations",
        help="comma-separated operations to evaluate instead of the "
             "multiply-only Table IV (multiply/add/subtract/fma, aliases "
             "mul/sub/mac; docs/operations.md)",
    )
    parser.add_argument(
        "--pipeline-sweep", action="store_true",
        help="benchmark the staged-pipeline design-space campaign "
             "(docs/pipeline.md) and record its Pareto frontier points",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="benchmark the campaign service (docs/service.md): cold vs "
             "warm request latency and cache hit rate over a live server",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT, help="benchmark history JSON path"
    )
    args = parser.parse_args(argv)
    if args.samples is None:
        args.samples = samples_from_env(parser, 800)
    if args.pipeline_sweep and args.workload:
        parser.error("--pipeline-sweep and --workload are mutually exclusive")
    if args.service and (args.pipeline_sweep or args.workload or args.operations):
        parser.error("--service benchmarks the Table IV campaign only")
    shards = args.shards_per_cell or args.workers

    if args.service:
        record = run_service_benchmark(args.samples, args.workers, shards)
        persist(record, args.out)
        print(f"campaign service, {record['samples']} samples/cell, "
              f"{record['cells']} cells, {record['workers']} workers")
        print(f"  cold request (computed):  {record['cold_wall_seconds']:>8.3f} s")
        print(f"  warm request (cached):    {record['warm_wall_seconds']:>8.3f} s")
        print(f"  warm speedup: {record['warm_speedup']:.1f}x  "
              f"(hit rate {record['cache_hit_rate']:.0%}, summaries "
              f"identical: {record['summaries_identical']})")
        print(f"history -> {os.path.abspath(args.out)}")
        return 0

    operations = None
    if args.operations:
        from repro.decnumber.operations import resolve_operation_name
        operations = tuple(
            resolve_operation_name(part)
            for part in args.operations.split(",") if part.strip()
        )
    record = run_benchmark(args.samples, args.workers, shards,
                           workload=args.workload, operations=operations,
                           pipeline_sweep=args.pipeline_sweep)
    persist(record, args.out)

    print(f"campaign scaling, {record['samples']} samples/cell, "
          f"{record['total_shards']} shards, {record['cpu_count']} cores")
    print(f"  serial   (1 worker):  {record['serial_wall_seconds']:>8.2f} s")
    print(f"  parallel ({args.workers} workers): "
          f"{record['parallel_wall_seconds']:>8.2f} s")
    print(f"  speedup: {record['speedup']:.2f}x  "
          f"(merged reports identical: {record['bit_identical_to_serial']})")
    for group, points in record.get("pipeline_frontier", {}).items():
        on_frontier = sum(1 for point in points if point["pareto"])
        print(f"  {group}: {len(points)} design points, "
              f"{on_frontier} on the Pareto frontier")
    for op, stats in record.get("per_operation", {}).items():
        print(f"  {op}: {stats['samples']} samples in "
          f"{stats['sim_wall_seconds']} s sim wall "
          f"({stats['samples_per_second']} samples/s)")
    print(f"history -> {os.path.abspath(args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
