"""Command-line entry point for the campaign service (docs/service.md).

Foreground server::

    PYTHONPATH=src python -m repro.serve --cache-dir .repro-cache \\
        --workers 4 --port 8437

Submit a campaign and read the merged Table IV summary back::

    curl -s -X POST localhost:8437/submit -d '{"samples": 2000}'
    curl -s localhost:8437/result/job-1

``--smoke`` runs the CI acceptance loop instead of serving forever: start a
server on an ephemeral port with a fresh cache, submit the same campaign
twice over HTTP, and assert the second request is served entirely from
cache with a summary bit-identical to the cold run (modulo its own wall
clock).  Exit status is non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time

from repro.campaign import positive_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8437,
                        help="TCP port (default 8437; 0 = ephemeral)")
    parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="content-addressed result store directory (default .repro-cache)",
    )
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="shard worker pool size (default 1; >1 uses "
                             "a process pool)")
    parser.add_argument("--shards-per-cell", type=positive_int, default=1,
                        help="default shard plan per cell (default 1)")
    parser.add_argument(
        "--mp-start-method", default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for the worker pool",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: submit the same campaign twice against a "
             "throwaway server+cache and assert a 100%% warm hit rate with "
             "a bit-identical summary",
    )
    parser.add_argument("--samples", type=positive_int, default=50,
                        help="samples per cell in --smoke mode (default 50)")
    return parser


def run_smoke(args) -> int:
    """Start a live server, submit twice, assert full warm cache hit."""
    from repro.service import (
        ResultCache,
        comparable_summary,
        serve_in_background,
    )
    from repro.service.client import submit_and_wait

    spec = {"samples": args.samples, "label": "smoke"}
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        cache = ResultCache(tmp)
        with serve_in_background(
            cache, host=args.host, port=0, workers=args.workers,
            shards_per_cell=args.shards_per_cell,
            mp_start_method=args.mp_start_method,
        ) as server:
            started = time.perf_counter()
            cold = submit_and_wait(server.base_url, spec)
            cold_seconds = time.perf_counter() - started
            started = time.perf_counter()
            warm = submit_and_wait(server.base_url, spec)
            warm_seconds = time.perf_counter() - started
        cells = cold["cache"]["cells"]
        print(f"service smoke: {cells} cells x {args.samples} samples")
        print(f"  cold request: {cold_seconds:8.3f} s "
              f"({cold['cache']['computed']} cells computed)")
        print(f"  warm request: {warm_seconds:8.3f} s "
              f"({warm['cache']['hits']} cells from cache)")
        failures = []
        if cold["cache"]["computed"] != cells:
            failures.append("cold run did not compute every cell")
        if warm["cache"]["hits"] != cells or warm["cache"]["computed"] != 0:
            failures.append(
                f"warm run was not a 100% cache hit: {warm['cache']}"
            )
        if comparable_summary(cold["summary"]) != comparable_summary(
            warm["summary"]
        ):
            failures.append("warm summary differs from the cold run")
        for failure in failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        if not failures:
            speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
            print(f"  warm/cold speedup: {speedup:.1f}x — summaries "
                  "bit-identical (modulo request wall clock)")
        return 1 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        return run_smoke(args)

    from repro.service import ResultCache, serve_forever

    cache = ResultCache(args.cache_dir)
    print(f"result cache: {json.dumps(cache.stats())}", flush=True)
    try:
        asyncio.run(serve_forever(
            cache, host=args.host, port=args.port, workers=args.workers,
            shards_per_cell=args.shards_per_cell,
            mp_start_method=args.mp_start_method,
        ))
    except KeyboardInterrupt:
        print("shutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
