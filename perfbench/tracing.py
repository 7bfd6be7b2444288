"""Span recorder for the benchmark's traced pass.

Nothing here touches ``src/repro``: :class:`Tracer` wraps the public
functions and methods each layer exposes, from the outside, and records one
span per call (name, start, end, parent span, run id).  Calls into the RoCC
accelerator are too frequent to keep one span each, so they are summed into
an aggregate on the span that issued them (the spike, rocket or gem5 run).

A layer's *self time* is its span's duration minus the time its child spans
cover; :func:`layer_metrics` turns a pass's spans into the per-layer metrics
listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter

#: Span names whose presence inside a cache-hit request means the hit
#: simulated something.
SIMULATOR_SPANS = frozenset({
    "testgen.draw_vectors", "testgen.build_test_program", "sim.acquire",
    "sim.spike_run", "verification.check_run", "rocket.acquire_timed",
    "rocket.run", "gem5.run_binary",
})


class Tracer:
    """In-memory span recorder; spans are written out when the pass ends."""

    def __init__(self) -> None:
        self.spans = []
        #: Identifier stamped on every span opened while it is set: the
        #: campaign cell or service request the benchmark is driving.
        self.run_id = None
        self.origin = perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "run": self.run_id,
            "start": perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            self.spans.append(record)

    # ---------------------------------------------------------------- patching
    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             aliases=()) -> None:
        """Replace ``owner.attr`` by a version that records a span per call.

        ``before(*args)`` runs ahead of the call and its value is handed to
        ``after(record, result, state, *args)``, which adds counters to the
        span record.  ``aliases`` are modules that bound the same function
        by name at import time; they get the traced version too.
        """
        original = getattr(owner, attr)
        span = self.span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(*args) if before is not None else None
            with span(name) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, result, state, *args)
            return result

        for target in (owner, *aliases):
            setattr(target, attr, traced)
            self._patches.append((target, attr, original))

    def wrap_aggregate(self, owner, attr: str) -> None:
        """Sum calls of ``owner.attr`` into the innermost open span.

        Every caller runs inside a wrapped simulator run, so a call with no
        open span is a bug in the wrapping and fails loudly.
        """
        original = getattr(owner, attr)
        local = self._local

        @functools.wraps(original)
        def counted(*args, **kwargs):
            started = perf_counter()
            result = original(*args, **kwargs)
            ended = perf_counter()
            top = local.stack[-1]
            agg = top.get("rocc")
            if agg is None:
                top["rocc"] = [1, ended - started, started, ended]
            else:
                agg[0] += 1
                agg[1] += ended - started
                agg[3] = ended
            return result

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ output
    def records(self) -> list:
        """Every span as a JSON-ready dict, times relative to the tracer start.

        Aggregated accelerator calls appear as one ``rocc.execute`` child per
        issuing span: ``start``/``end`` are its first call's start and last
        call's end, ``busy_s`` the summed call time and ``count`` the calls.
        """
        origin = self.origin
        out = []
        for span in sorted(self.spans, key=lambda s: s["start"]):
            record = {
                key: value for key, value in span.items() if key != "rocc"
            }
            record["start"] = span["start"] - origin
            record["end"] = span["end"] - origin
            out.append(record)
            agg = span.get("rocc")
            if agg is not None:
                out.append({
                    "id": f"{span['id']}.rocc",
                    "name": "rocc.execute",
                    "parent": span["id"],
                    "run": span["run"],
                    "start": agg[2] - origin,
                    "end": agg[3] - origin,
                    "busy_s": agg[1],
                    "count": agg[0],
                })
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every simulator-side layer."""
    import repro.core.campaign
    import repro.core.evaluation
    import repro.core.results
    import repro.service.engine
    import repro.testgen.generator
    from repro.gem5.se_mode import SyscallEmulationRunner
    from repro.rocc.interface import Accelerator
    from repro.rocket.core import RocketEmulator
    from repro.service.cache import ResultCache
    from repro.sim.batch import BatchRunner
    from repro.sim.spike import SpikeSimulator
    from repro.verification.checker import ResultChecker

    # Callers that import these functions at call time see the module's
    # traced copy; modules that bound them at import time are aliases.
    tracer.wrap(repro.testgen.generator, "draw_vectors", "testgen.draw_vectors")
    tracer.wrap(repro.testgen.generator, "build_test_program",
                "testgen.build_test_program", aliases=(repro.core.evaluation,))
    tracer.wrap(repro.core.results, "merge_shard_reports", "core.merge",
                aliases=(repro.core.campaign, repro.service.engine))

    def executor_counters(simulator):
        executor = simulator.executor
        return (executor.tier2_blocks, executor.tier2_compile_seconds,
                executor.tier2_deopts)

    def spike_after(record, result, before, simulator):
        blocks, compile_s, deopts = executor_counters(simulator)
        record["instructions"] = result.instructions_retired
        record["tier2_blocks"] = blocks - before[0]
        record["tier2_compile_s"] = compile_s - before[1]
        record["tier2_deopts"] = deopts - before[2]

    tracer.wrap(SpikeSimulator, "run", "sim.spike_run",
                before=executor_counters, after=spike_after)
    tracer.wrap(BatchRunner, "acquire", "sim.acquire")

    def rocket_counters(emulator):
        return (emulator.timing_spans, emulator.timing_compile_seconds,
                emulator.timing_compiled_instructions)

    def rocket_after(record, result, before, emulator):
        spans, compile_s, compiled = rocket_counters(emulator)
        record["instructions"] = result.instructions_retired
        record["timing_spans"] = spans - before[0]
        record["timing_compile_s"] = compile_s - before[1]
        record["compiled_instructions"] = compiled - before[2]

    tracer.wrap(RocketEmulator, "run", "rocket.run",
                before=rocket_counters, after=rocket_after)
    tracer.wrap(BatchRunner, "acquire_timed", "rocket.acquire_timed")

    def check_after(record, report, _state, *_args):
        record["vectors"] = report.total

    tracer.wrap(ResultChecker, "check_run", "verification.check_run",
                after=check_after)

    def gem5_after(record, result, _state, *_args):
        record["instructions"] = result.instructions_retired

    tracer.wrap(SyscallEmulationRunner, "run_binary", "gem5.run_binary",
                after=gem5_after)
    tracer.wrap_aggregate(Accelerator, "execute")

    tracer.wrap(ResultCache, "key_for", "service.key_for")
    tracer.wrap(ResultCache, "load", "service.cache_load")
    tracer.wrap(ResultCache, "store", "service.cache_store")


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its direct children."""
    child_time = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_time[parent] = (
                child_time.get(parent, 0.0) + span["end"] - span["start"]
            )
    result = {}
    for span in spans:
        covered = child_time.get(span["id"], 0.0)
        agg = span.get("rocc")
        if agg is not None:
            covered += agg[1]
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def layer_metrics(spans) -> dict:
    """Per-layer self times and counts over one traced pass."""
    own = self_times(spans)
    seconds = {}
    calls = {}
    fields = {}
    rocc_commands = 0
    rocc_seconds = 0.0
    for span in spans:
        name = span["name"]
        seconds[name] = seconds.get(name, 0.0) + own[span["id"]]
        calls[name] = calls.get(name, 0) + 1
        for key in ("instructions", "tier2_blocks", "tier2_compile_s",
                    "tier2_deopts", "timing_spans", "timing_compile_s",
                    "compiled_instructions", "vectors"):
            if key in span:
                fields[(name, key)] = fields.get((name, key), 0) + span[key]
        agg = span.get("rocc")
        if agg is not None:
            rocc_commands += agg[0]
            rocc_seconds += agg[1]

    def field(name, key):
        return fields.get((name, key), 0)

    rocket_instructions = field("rocket.run", "instructions")
    return {
        "testgen.vectors_s": seconds.get("testgen.draw_vectors", 0.0),
        "testgen.build_s": seconds.get("testgen.build_test_program", 0.0),
        "testgen.build_calls": calls.get("testgen.build_test_program", 0),
        "sim.spike_s": seconds.get("sim.spike_run", 0.0),
        "sim.spike_minstr": field("sim.spike_run", "instructions") / 1e6,
        "sim.acquire_s": seconds.get("sim.acquire", 0.0),
        "sim.tier2_blocks": field("sim.spike_run", "tier2_blocks"),
        "sim.tier2_compile_s": field("sim.spike_run", "tier2_compile_s"),
        "sim.tier2_deopts": field("sim.spike_run", "tier2_deopts"),
        "verification.check_s": seconds.get("verification.check_run", 0.0),
        "verification.vectors_checked": field("verification.check_run",
                                              "vectors"),
        "rocket.run_s": seconds.get("rocket.run", 0.0),
        "rocket.minstr": rocket_instructions / 1e6,
        "rocket.acquire_s": seconds.get("rocket.acquire_timed", 0.0),
        "rocket.timing_spans": field("rocket.run", "timing_spans"),
        "rocket.timing_compile_s": field("rocket.run", "timing_compile_s"),
        "rocket.compiled_frac": (
            field("rocket.run", "compiled_instructions") / rocket_instructions
            if rocket_instructions else 0.0
        ),
        "rocc.execute_s": rocc_seconds,
        "rocc.commands": rocc_commands,
        "rocc.us_per_command": (
            rocc_seconds / rocc_commands * 1e6 if rocc_commands else 0.0
        ),
        "gem5.run_s": seconds.get("gem5.run_binary", 0.0),
        "gem5.minstr": field("gem5.run_binary", "instructions") / 1e6,
        "core.merge_s": seconds.get("core.merge", 0.0),
        "core.campaign_self_s": seconds.get("core.campaign", 0.0),
        "service.key_s": seconds.get("service.key_for", 0.0),
        "service.cache_load_s": seconds.get("service.cache_load", 0.0),
        "service.cache_store_s": seconds.get("service.cache_store", 0.0),
    }
