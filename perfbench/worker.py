"""One pass of a benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per pass so that every pass begins from
fresh process state: no warm ``BatchRunner``, no tier-2 code and no decode
caches carried over from an earlier pass.  It needs the checkout's ``src``
on ``PYTHONPATH``::

    mkdir -p perfbench/_out/cache
    PYTHONPATH=src python3 perfbench/worker.py --workload table_iv_paper \\
        --seed 1 --cache-dir perfbench/_out/cache \\
        --t0 "$(python3 -c 'import time; print(time.monotonic())')"

``--t0`` is the ``time.monotonic()`` reading taken just before the process
was started, so set-up time includes interpreter start.  ``--cache-dir``
names the pass's result-cache directory (``run.py`` creates and removes
it).  ``--setup-only`` stops once set-up is done; ``--replay`` reruns a
campaign workload from the cache a measured pass filled;
``--trace-out PATH`` records spans around every layer's public entry points
and writes them to ``PATH`` as JSON lines.  ``run.py`` pins itself, and so
every pass, to one CPU.  The last line of standard output is one JSON
object describing the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import time
from time import perf_counter

FORMATS = ("decimal64", "decimal128")
WORKLOADS = ("table_iv_paper", "op_sweep_diff", "service_mixed")

#: Samples of each Table IV cell (all three solutions, decimal64 multiply).
TABLE_IV_SAMPLES = 600
#: Samples of each cell of the differential operation sweep.
SWEEP_SAMPLES = 10
#: Distinct service specs per pass; each is sent once as a miss, and every
#: miss is followed by this many hits over the specs sent so far.
SERVICE_SPECS = 13
SERVICE_HITS_PER_MISS = 40
SERVICE_SAMPLES = 20
#: Host seconds of cached reruns in each replay process.
HIT_REPLAY_SECONDS = 0.3


def campaign_cells(workload: str, seed: int) -> list:
    from repro.core.campaign import operation_cells, table_iv_cells

    if workload == "table_iv_paper":
        return table_iv_cells(num_samples=TABLE_IV_SAMPLES, seed=seed)
    cells = operation_cells(
        ("multiply", "add", "fma"), formats=FORMATS,
        num_samples=SWEEP_SAMPLES, seed=seed, differential=True,
    )
    # The Table IV dummy row (multiply only), so that every solution's
    # cycles are measured on this workload too.
    cells += operation_cells(
        ("multiply",), formats=FORMATS, kinds=("method1_dummy",),
        num_samples=SWEEP_SAMPLES, seed=seed, differential=True,
    )
    return cells


def simulated_instructions(cell, report) -> int:
    """Instructions retired by spike, rocket and gem5 for one cell.

    The three models run the same program to completion, so each retires
    the Rocket count; spike runs when the cell is checked or differential
    and gem5 only in differential cells.
    """
    models = 1
    if (cell.verify_functionally and cell.solution.verifiable) or cell.differential:
        models += 1
    if cell.differential:
        models += 1
    return report.instructions_retired * models


def cell_record(cell, report) -> dict:
    """The exact simulated results of one cell (compared across passes)."""
    return {
        "label": cell.label,
        "kind": cell.solution.kind,
        "avg_total_cycles": report.avg_total_cycles,
        "sample_cycles": sum(report.per_sample_cycles),
        "total_cycles_run": report.total_cycles_run,
        "gem5_cycles": report.gem5_cycles,
        "instructions": report.instructions_retired,
        "rocc_commands": report.rocc_commands,
    }


def cell_problems(report) -> list:
    problems = []
    if report.divergences:
        problems.append(f"{report.divergences} divergences")
    if report.oracle_disagreements:
        problems.append(f"{report.oracle_disagreements} oracle disagreements")
    if report.verification_failures:
        problems.append(f"{report.verification_failures} check failures")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def campaign_pass(workload, seed, t0, cache_dir, setup_only, tracer) -> dict:
    """One campaign over the workload's cells: one request.

    Each cell runs as its own ``run_campaign`` call (``workers=1``,
    ``shards_per_cell=1``), which does that cell's share of the work of one
    call over all cells: vectors, simulation, cache key and store, merge.
    A reference reading between calls (``reference.Interleaved``) scales
    each call's time to the reference host speed; ``wall_s`` is the sum of
    the scaled times and ``raw_wall_s`` of the measured ones.  The cache
    starts empty, so every cell misses and is simulated.
    :func:`replay_pass` reruns the campaign from the filled cache in a
    later process.
    """
    from reference import REFERENCE_STEPS, Interleaved
    from repro.core.campaign import CampaignResult, run_campaign
    from repro.errors import VerificationError
    from repro.service.cache import ResultCache
    from repro.service.engine import comparable_summary

    cells = campaign_cells(workload, seed)
    cache = ResultCache(cache_dir)
    out = {"setup_s": time.monotonic() - t0}
    if setup_only:
        return out
    if tracer is not None:
        tracer.run_id = "campaign"
    slices = Interleaved(REFERENCE_STEPS)
    reports = []
    raw_wall = wall = 0.0
    cache_hits = 0
    try:
        for cell in cells:
            span = (tracer.span("core.campaign") if tracer is not None
                    else contextlib.nullcontext())
            started = perf_counter()
            with span:
                cell_result = run_campaign([cell], workers=1,
                                           shards_per_cell=1, cache=cache)
            elapsed = perf_counter() - started
            raw_wall += elapsed
            wall += elapsed * slices.scale(elapsed)
            reports += cell_result.reports
            cache_hits += cell_result.cache_hits
    except VerificationError as error:
        # The campaign stops at the first failing cell: none is measured.
        out.update(attempted=len(cells), failed=len(cells),
                   failures=[str(error)])
        return out
    result = CampaignResult(cells=cells, reports=reports, workers=1,
                            shards_per_cell=1, wall_seconds=raw_wall,
                            cache_hits=cache_hits,
                            cache_misses=len(cells) - cache_hits)
    failures = []
    for cell, report in zip(cells, result.reports):
        problems = cell_problems(report)
        if problems:
            failures.append(f"{cell.label}: {', '.join(problems)}")
    out.update(
        wall_s=wall,
        raw_wall_s=raw_wall,
        peak_rss_mb=peak_rss_mb(),
        attempted=len(cells),
        failed=len(failures),
        failures=failures[:10],
        operations=1,
        instructions=sum(
            simulated_instructions(cell, report)
            for cell, report in zip(cells, result.reports)
        ),
        hit_latencies=[],
        cells=[cell_record(cell, report)
               for cell, report in zip(cells, result.reports)],
        summary=comparable_summary(result.to_summary()),
        layers_extra={
            "service.hits": result.cache_hits,
            "service.misses": result.cache_misses,
            "service.hit_ratio": result.cache_hits / len(cells),
            "service.http_self_ms": 0.0,
            "service.hit_sim_spans": 0,
        },
    )
    return out


def replay_pass(workload, seed, cache_dir) -> dict:
    """The campaign rerun from the cache a measured pass filled.

    Repeats the same ``run_campaign`` call for ``HIT_REPLAY_SECONDS``; each
    rerun keys, loads and merges every cell, as a user rerunning
    ``python -m repro.campaign --cache-dir`` gets.  Each rerun's latency
    is scaled to the reference host speed (``reference.Interleaved``).  The
    first rerun's summary is returned for comparison with the computed one.
    """
    from reference import Interleaved
    from repro.core.campaign import run_campaign
    from repro.service.cache import ResultCache
    from repro.service.engine import comparable_summary

    cells = campaign_cells(workload, seed)
    cache = ResultCache(cache_dir)
    summary = None
    failures = []
    latencies = []
    slices = Interleaved(decode=True)
    deadline = perf_counter() + HIT_REPLAY_SECONDS
    while not latencies or perf_counter() < deadline:
        started = perf_counter()
        result = run_campaign(cells, workers=1, shards_per_cell=1,
                              cache=cache)
        latency = perf_counter() - started
        latencies.append(latency * slices.scale(latency))
        if result.cache_hits != len(cells):
            failures.append(
                f"rerun {len(latencies)}: {result.cache_misses} cells missed "
                "the cache"
            )
        elif summary is None:
            summary = comparable_summary(result.to_summary())
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "hit_latencies": latencies,
        "summary": summary,
    }


def send_spec(base_url: str, spec: dict):
    """``(status, payload)`` of one submit-and-wait round trip.

    Asks for the result straight after the submit; only a job still running
    (409) waits on ``/stream/<job>``, which returns when the job ends, so
    latency is not rounded to any poll interval.
    """
    from repro.service.client import request_json, stream_events

    status, ticket = request_json(f"{base_url}/submit", spec)
    if status != 202:
        return status, ticket
    job = ticket["job"]
    status, payload = request_json(f"{base_url}/result/{job}")
    if status == 409:
        stream_events(base_url, job)
        status, payload = request_json(f"{base_url}/result/{job}")
    return status, payload


def service_plan(seed: int) -> tuple:
    """The pass's specs and the order they are sent in (seeded).

    One spec in three is decimal128, so that the misses' median falls
    inside the decimal64 misses rather than between the two formats.
    """
    specs = [
        {"samples": SERVICE_SAMPLES, "seed": seed * 1000 + index,
         "fmt": FORMATS[1] if index % 3 == 2 else FORMATS[0]}
        for index in range(SERVICE_SPECS)
    ]
    rng = random.Random(seed)
    order = []
    for index in range(SERVICE_SPECS):
        order.append(index)
        order.extend(rng.randrange(index + 1)
                     for _ in range(SERVICE_HITS_PER_MISS))
    return specs, order


def service_pass(workload, seed, t0, cache_dir, setup_only, tracer) -> dict:
    """A live service driven by one closed-loop client (see README.md).

    Each request's latency is scaled to the reference host speed by the
    reference slices just before and after it (``reference.Interleaved``).
    ``wall_s`` is the sum of the scaled latencies and ``raw_wall_s`` of the
    measured ones.
    """
    from reference import Interleaved
    from repro.service.cache import ResultCache
    from repro.service.engine import comparable_summary
    from repro.service.server import serve_in_background

    server = None
    try:
        cache = ResultCache(cache_dir)
        server = serve_in_background(cache, workers=1)
        out = {"setup_s": time.monotonic() - t0}
        if setup_only:
            return out
        specs, order = service_plan(seed)
        failures = []
        records = []
        computed = {}            # spec index -> comparable summary
        hit_latencies = []
        miss_latencies = []
        hit_requests = []        # (request id, latency)
        instructions = 0
        raw_wall = wall = 0.0
        slices = Interleaved(decode=True)
        for request, index in enumerate(order):
            if tracer is not None:
                tracer.run_id = f"req-{request}"
            sent = perf_counter()
            status, payload = send_spec(server.base_url, specs[index])
            latency = perf_counter() - sent
            scaled = latency * slices.scale(latency)
            raw_wall += latency
            wall += scaled
            if status != 200:
                failures.append(
                    f"request {request}: HTTP {status} {payload.get('error', '')}"
                )
                continue
            cache_block = payload["cache"]
            summary = comparable_summary(payload["summary"])
            if cache_block["hits"] == cache_block["cells"]:
                hit_latencies.append(scaled)
                hit_requests.append((f"req-{request}", latency))
                if index not in computed:
                    failures.append(f"request {request}: first send was a hit")
                elif summary != computed[index]:
                    failures.append(
                        f"request {request}: hit summary differs from its miss"
                    )
                continue
            miss_latencies.append(scaled)
            if index in computed:
                failures.append(f"request {request}: repeated spec simulated")
                continue
            computed[index] = summary
            result = server.service.job(payload["job"]).result
            for cell, report in zip(result.cells, result.reports):
                problems = cell_problems(report)
                if problems:
                    failures.append(f"{cell.label}: {', '.join(problems)}")
                records.append(cell_record(cell, report))
                instructions += simulated_instructions(cell, report)
        out.update(
            wall_s=wall,
            raw_wall_s=raw_wall,
            peak_rss_mb=peak_rss_mb(),
            attempted=len(order),
            failed=len(failures),
            failures=failures[:10],
            operations=len(order),
            instructions=instructions,
            miss_latencies=miss_latencies,
            hit_latencies=hit_latencies,
            cells=records,
        )
        if tracer is not None:
            out["layers_extra"] = service_layers(
                tracer, hit_requests, len(miss_latencies)
            )
        return out
    finally:
        if server is not None:
            server.stop()


def service_layers(tracer, hit_requests, misses: int) -> dict:
    """Hit/miss counts and the HTTP share of hit latency, from the spans."""
    from tracing import SIMULATOR_SPANS

    by_run = {}
    for span in tracer.spans:
        by_run.setdefault(span["run"], []).append(span)
    http_self = []
    simulator_spans = 0
    for run_id, latency in hit_requests:
        spans = by_run.get(run_id, [])
        inner = sum(
            span["end"] - span["start"] for span in spans
            if span["name"] in ("service.key_for", "service.cache_load",
                                "core.merge")
        )
        http_self.append(latency - inner)
        simulator_spans += sum(
            1 for span in spans if span["name"] in SIMULATOR_SPANS
        )
    hits = len(hit_requests)
    return {
        "service.hits": hits,
        "service.misses": misses,
        "service.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.http_self_ms": (
            statistics.median(http_self) * 1e3 if http_self else 0.0
        ),
        "service.hit_sim_spans": simulator_spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--replay", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.replay:
        print(json.dumps(replay_pass(args.workload, args.seed, args.cache_dir)))
        return 0

    tracer = None
    if args.trace_out:
        from tracing import Tracer, install_layer_spans

        tracer = Tracer()
        install_layer_spans(tracer)
    run = service_pass if args.workload == "service_mixed" else campaign_pass
    out = run(args.workload, args.seed, args.t0, args.cache_dir,
              args.setup_only, tracer)
    if tracer is not None and not args.setup_only:
        from tracing import layer_metrics

        tracer.uninstall()
        tracer.write(args.trace_out)
        layers = layer_metrics(tracer.spans)
        layers.update(out.pop("layers_extra", {}))
        out["layers"] = layers
    out.pop("layers_extra", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
