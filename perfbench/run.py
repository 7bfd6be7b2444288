"""Repository benchmark: paper Table IV, differential op sweep, service mix.

Run from the root of a checkout (no build step; the benchmark imports the
checkout's ``src``)::

    python3 perfbench/run.py --workload table_iv_paper --seed 1 --seconds 36 --trace 0

Every pass runs in a fresh interpreter (``worker.py``).  With ``--trace 0``
the run repeats untraced passes for ``--seconds`` seconds and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics, the tracing overhead, and writes
each traced pass's spans to ``perfbench/_out/``.  End-to-end host times
are scaled to a reference host speed (``reference.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from reference import REFERENCE_NOMINAL_S, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "_out")

WORKLOADS = ("table_iv_paper", "op_sweep_diff", "service_mixed")
KINDS = ("method1", "software", "method1_dummy")
#: Set-up-only processes started per run, besides the measured passes;
#: ``setup_s`` is the median of their set-up times.
SETUP_PROBES = 5
#: Processes that rerun a campaign pass from its cache.  The cache-hit
#: latency of one process differs from the next by up to ~1.5x at the same
#: reference speed, so many short processes give a steadier median than a
#: few long ones.
REPLAY_PROCESSES = 3
#: The whole run must end within this many seconds.
RUN_LIMIT_SECONDS = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
    "sim_cycles.method1": "cycles",
    "sim_cycles.software": "cycles",
    "sim_cycles.method1_dummy": "cycles",
    "hit_p50_ms": "ms",
    "hit_p99_ms": "ms",
    "miss_p50_s": "s",
    "requests_per_s": "1/s",
}

LAYER_UNITS = {
    "testgen.vectors_s": "s",
    "testgen.build_s": "s",
    "testgen.build_calls": "count",
    "sim.spike_s": "s",
    "sim.spike_minstr": "Minstr",
    "sim.acquire_s": "s",
    "sim.tier2_blocks": "count",
    "sim.tier2_compile_s": "s",
    "sim.tier2_deopts": "count",
    "verification.check_s": "s",
    "verification.vectors_checked": "count",
    "rocket.run_s": "s",
    "rocket.minstr": "Minstr",
    "rocket.acquire_s": "s",
    "rocket.timing_spans": "count",
    "rocket.timing_compile_s": "s",
    "rocket.compiled_frac": "fraction",
    "rocc.execute_s": "s",
    "rocc.commands": "count",
    "rocc.us_per_command": "us",
    "gem5.run_s": "s",
    "gem5.minstr": "Minstr",
    "core.merge_s": "s",
    "core.campaign_self_s": "s",
    "service.key_s": "s",
    "service.cache_load_s": "s",
    "service.cache_store_s": "s",
    "service.hits": "count",
    "service.misses": "count",
    "service.hit_ratio": "fraction",
    "service.http_self_ms": "ms",
    "service.hit_sim_spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}


class PassError(RuntimeError):
    """A pass process failed or produced no result."""


def pin_to_one_cpu() -> None:
    """Run this process, and so every pass it starts, on one CPU.

    The service pass's client, event-loop and executor threads hand off to
    each other on every request.  Across CPUs each handoff waits for a
    wake-up on the other CPU; on a shared 2-core VM that made the hit tail
    3-4x longer and made it swing with the host's load.  On one CPU that
    scheduler noise is gone, and the reference work (``reference.py``)
    runs on the CPU the passes run on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """Reference readings (``reference.py``) around set-up-only processes.

    Readings are taken in this process just before and just after each
    process, when no code under test runs, so the program cannot slow them.
    A reading after one process serves as the reading before the next.
    """

    def __init__(self) -> None:
        self.readings = []

    def read(self) -> float:
        self.readings.append(reference_seconds())
        return self.readings[-1]

    def around(self, work):
        """``work()``'s result, and the nominal reference time over the
        mean of the readings just before and just after it."""
        before = self.readings[-1] if self.readings else self.read()
        result = work()
        return result, REFERENCE_NOMINAL_S / ((before + self.read()) / 2)


def run_child(workload, seed, deadline, cache_dir, *, setup_only=False,
              replay=False, trace_out=None) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--cache-dir", cache_dir]
    if setup_only:
        command.append("--setup-only")
    if replay:
        command.append("--replay")
    if trace_out:
        command += ["--trace-out", trace_out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("no time left for another pass")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--t0", repr(started)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} pass exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(
            f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def run_pass(workload, seed, deadline, *, setup_only=False, replay=False,
             trace_out=None) -> dict:
    """One pass in a fresh process with a fresh, afterwards removed, cache.

    With ``replay`` a campaign pass is followed by ``REPLAY_PROCESSES``
    fresh processes that rerun the campaign from the cache it filled; the
    reruns' hit latencies, counts and failures join the pass's, and a
    cached summary that differs from the computed one is a failure.
    """
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR)
    try:
        result = run_child(workload, seed, deadline, cache_dir,
                           setup_only=setup_only, trace_out=trace_out)
        for _ in range(REPLAY_PROCESSES if replay else 0):
            merge_hits(result, run_child(workload, seed, deadline, cache_dir,
                                         replay=True))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return result


def setup_seconds(workload, seed, deadline, speed) -> float:
    """Set-up time of one set-up-only process, scaled by :class:`HostSpeed`."""
    result, scale = speed.around(
        lambda: run_pass(workload, seed, deadline, setup_only=True)
    )
    return result["setup_s"] * scale


def merge_hits(result: dict, hits: dict) -> None:
    result["hit_latencies"] += hits["hit_latencies"]
    result["attempted"] += hits["attempted"]
    result["failed"] += hits["failed"]
    result["failures"] += hits["failures"]
    if hits["summary"] is not None and hits["summary"] != result["summary"]:
        result["failed"] += 1
        result["failures"].append(
            "cached campaign summary differs from the computed one"
        )


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def cycles_by_kind(cells) -> dict:
    """Mean over cells of each solution's average cycles per operation."""
    means = {}
    for kind in KINDS:
        values = [cell["avg_total_cycles"] for cell in cells
                  if cell["kind"] == kind]
        if values:
            means[kind] = statistics.fmean(values)
    return means


def end_to_end(passes, setups) -> dict:
    hits = [lat for p in passes for lat in p["hit_latencies"]]
    # A campaign pass is one request: its miss latency is its wall time.
    misses = [lat for p in passes
              for lat in p.get("miss_latencies", [p["wall_s"]])]
    cycles = cycles_by_kind(passes[0]["cells"])
    missing = [kind for kind in KINDS if kind not in cycles]
    if missing or not hits or not misses:
        raise PassError(f"pass measured no {missing or 'hits or misses'}")
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "sim_minstr_per_s": statistics.median(
            p["instructions"] / p["wall_s"] / 1e6 for p in passes
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "hit_p50_ms": percentile(hits, 50) * 1e3,
        "hit_p99_ms": percentile(hits, 99) * 1e3,
        "miss_p50_s": percentile(misses, 50),
        "requests_per_s": statistics.median(
            p["operations"] / p["wall_s"] for p in passes
        ),
    }
    for kind, value in cycles.items():
        metrics[f"sim_cycles.{kind}"] = value
    return metrics


def per_layer(untraced, traced) -> dict:
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    plain = statistics.median(p["wall_s"] for p in untraced)
    with_spans = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = with_spans - plain
    metrics["trace.overhead_frac"] = (with_spans - plain) / plain
    return metrics


def describe_split(workload, traced, layers) -> str:
    # Span times are not scaled, so they are set against the unscaled wall.
    wall = statistics.median(p["raw_wall_s"] for p in traced)
    rocket = layers["rocket.run_s"] + layers["rocc.execute_s"]
    functional = layers["sim.spike_s"] + layers["gem5.run_s"]
    return (
        f"{workload}: traced wall {wall:.3f}s; rocket.run_s + rocc.execute_s "
        f"= {rocket:.3f}s ({rocket / wall:.0%}); sim.spike_s + gem5.run_s = "
        f"{functional:.3f}s ({functional / wall:.0%}); simulator spans inside "
        f"cache hits: {layers['service.hit_sim_spans']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro package in this checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_SECONDS
    workload, seed = args.workload, args.seed
    pin_to_one_cpu()

    replay = workload != "service_mixed" and not args.trace
    speed = HostSpeed()
    try:
        # Warm-up: the first interpreter in a checkout compiles bytecode,
        # a cost users pay once, not per run.
        run_pass(workload, seed, deadline, setup_only=True)
        measure_until = time.monotonic() + args.seconds
        untraced, traced = [], []
        while True:
            started = time.monotonic()
            untraced.append(run_pass(workload, seed, deadline, replay=replay))
            if args.trace:
                trace_out = os.path.join(
                    OUT_DIR, f"spans-{workload}-seed{seed}-pass{len(traced)}.jsonl"
                )
                traced.append(run_pass(workload, seed, deadline,
                                       trace_out=trace_out))
                print(f"perfbench: spans written to {trace_out}",
                      file=sys.stderr)
            spent = time.monotonic() - started
            if time.monotonic() + spent > measure_until:
                break
        setups = [] if args.trace else [
            setup_seconds(workload, seed, deadline, speed)
            for _ in range(SETUP_PROBES)
        ]
    except PassError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    passes = untraced + traced
    print(
        f"perfbench: {len(untraced)} untraced, {len(traced)} traced passes; "
        "scaled/unscaled wall_s " + ", ".join(
            f"{p.get('wall_s', 0):.3f}/{p.get('raw_wall_s', 0):.3f}"
            for p in passes
        ),
        file=sys.stderr,
    )
    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    for p in passes:
        for failure in p["failures"]:
            print(f"perfbench: failure: {failure}", file=sys.stderr)
    if any("cells" not in p for p in passes):
        print("perfbench: a campaign stopped before measuring",
              file=sys.stderr)
        return 1
    # The model is deterministic: every pass of one seed, traced or not,
    # must report the same cycles for every cell.
    reference = passes[0]["cells"]
    for p in passes[1:]:
        if p["cells"] != reference:
            print("perfbench: simulated results differ between passes",
                  file=sys.stderr)
            failed += 1
    try:
        if args.trace:
            metrics = per_layer(untraced, traced)
            print(describe_split(workload, traced, metrics), file=sys.stderr)
            units = LAYER_UNITS
        else:
            metrics = end_to_end(untraced, setups)
            units = END_TO_END_UNITS
    except PassError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
