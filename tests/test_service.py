"""Campaign service tests: content-addressed cache, job engine, HTTP API.

Pins the service guarantees of docs/service.md: a repeated
campaign is served entirely from the result cache with a summary
bit-identical to the cold run, the cache key covers every measurement
input plus the code-version fingerprint, and concurrent duplicate
submissions coalesce onto one computation.
"""

import asyncio
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from repro.core.campaign import run_campaign, table_iv_cells
from repro.core.results import shard_report_from_dict, shard_report_to_dict
from repro.errors import ConfigurationError
from repro.service import (
    CampaignService,
    ResultCache,
    cell_key,
    cell_key_payload,
    cells_from_spec,
    code_version,
    comparable_summary,
    serve_in_background,
)
from repro.service.client import (
    ServiceError,
    get_json,
    request_json,
    stream_events,
    submit_and_wait,
    wait_for_result,
)
from repro.testgen.config import SolutionKind

KINDS = (SolutionKind.SOFTWARE, SolutionKind.METHOD1)
SAMPLES = 12


def _cells(**overrides):
    options = dict(num_samples=SAMPLES, kinds=KINDS, verify_functionally=False)
    options.update(overrides)
    return table_iv_cells(**options)


class TestCellKey:
    def test_key_is_deterministic(self):
        first, second = _cells()[0], _cells()[0]
        assert cell_key(first) == cell_key(second)
        assert len(cell_key(first)) == 64  # full sha256 hex digest

    def test_key_covers_every_measurement_input(self):
        # Unlike BatchRunner._key (which may omit vector provenance because
        # vectors are rebound on every hit), the persistent cache key must
        # hash the *full* provenance: cached cycle reports are never
        # recomputed, so anything that can change them must change the key.
        base = _cells()[0]
        variants = [
            _cells(num_samples=SAMPLES + 1)[0],
            _cells(seed=99)[0],
            _cells(repetitions=2)[0],
            _cells(operand_classes=("zero",))[0],
            _cells(fmt="decimal128")[0],
            _cells(op="add")[0],
            _cells(verify_functionally=True)[0],
            _cells(kinds=(SolutionKind.METHOD1, SolutionKind.SOFTWARE))[0],
        ]
        keys = {cell_key(cell) for cell in variants}
        assert cell_key(base) not in keys
        assert len(keys) == len(variants)

    def test_shard_plan_is_part_of_the_key(self):
        cell = _cells()[0]
        assert cell_key(cell, shards_per_cell=1) != cell_key(
            cell, shards_per_cell=3
        )

    def test_code_version_bump_invalidates(self):
        cell = _cells()[0]
        assert cell_key(cell, version="deadbeef") != cell_key(
            cell, version="cafef00d"
        )
        # The default version is the real fingerprint of src/repro — stable
        # within a process, 64 hex chars, and embedded in the payload.
        payload = cell_key_payload(cell)
        assert payload["code_version"] == code_version()
        assert len(code_version()) == 64

    def test_payload_is_canonical_json(self):
        payload = cell_key_payload(_cells()[0])
        round_tripped = json.loads(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )
        assert round_tripped == payload
        for field in ("schema", "code_version", "seed", "solution",
                      "workload", "fmt", "op", "rocket", "shard_plan"):
            assert field in payload


class TestResultCache:
    def test_store_load_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        shard = shard_report_from_dict(dict(
            shard_index=0, start=0, stop=3, raw_cycle_samples=[5, 6, 7],
            hw_cycles=30, sw_cycles=100, icache_accesses=50, icache_hits=40,
            dcache_accesses=20, dcache_hits=10, sim_wall_seconds=0.25,
            check_total=3, verified=True,
        ))
        cache.store("ab" * 32, [shard])
        loaded = cache.load("ab" * 32)
        assert loaded is not None
        assert dataclasses.asdict(loaded[0]) == dataclasses.asdict(shard)
        assert cache.hits == 1 and len(cache) == 1

    def test_corrupt_and_foreign_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        path = cache._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("not json{")
        assert cache.load(key) is None
        with open(path, "w") as handle:
            json.dump({"schema": 9999, "shards": []}, handle)
        assert cache.load(key) is None
        assert cache.misses == 2 and cache.hits == 0

    def test_stats_and_bypass_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("ef" * 32) is None
        cache.bypass(2)
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["bypasses"] == 2
        assert stats["entries"] == 0 and cache.hit_rate == 0.0

    def test_version_scoped_store(self, tmp_path):
        # Entries written under one code version are invisible to a cache
        # constructed with another: the version participates in the key.
        cell = _cells()[0]
        old = ResultCache(tmp_path, version="old")
        new = ResultCache(tmp_path, version="new")
        assert old.key_for(cell) != new.key_for(cell)
        assert not new.contains(old.key_for(cell))


class TestRunCampaignCache:
    def test_warm_rerun_is_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = table_iv_cells(num_samples=SAMPLES, kinds=KINDS)
        cold = run_campaign(cells, cache=cache)
        assert cold.cache_misses == len(KINDS) and cold.cache_hits == 0
        warm = run_campaign(cells, cache=cache)
        assert warm.cache_hits == len(KINDS) and warm.cache_misses == 0
        assert comparable_summary(cold.to_summary()) == comparable_summary(
            warm.to_summary()
        )
        # Everything but the campaign's own wall clock matches — including
        # sim_wall_seconds, which warm runs inherit from the cached shards.
        assert cold.to_summary()["sim_wall_seconds"] == (
            warm.to_summary()["sim_wall_seconds"]
        )
        assert cache.hits == len(KINDS) and cache.misses == len(KINDS)

    def test_sharded_warm_rerun_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = table_iv_cells(num_samples=SAMPLES, kinds=KINDS)
        cold = run_campaign(cells, shards_per_cell=3, cache=cache)
        warm = run_campaign(cells, shards_per_cell=3, cache=cache)
        assert warm.cache_hits == len(KINDS)
        assert comparable_summary(cold.to_summary()) == comparable_summary(
            warm.to_summary()
        )
        assert warm.to_summary()["workers"] == cold.to_summary()["workers"]
        assert warm.total_shards == cold.total_shards == 3 * len(KINDS)


#: Malformed specs and the field their 400 must name.  The last one is
#: only caught by ``submit``, which parses the shard plan.
MALFORMED_SPECS = [
    ({"kinds": ["nonsense"]}, "kinds"),
    ({"kinds": "method1"}, "kinds"),
    ({"samples": "abc"}, "samples"),
    ({"repetitions": "x"}, "repetitions"),
    ({"seed": [1]}, "seed"),
    ({"classes": ["bogus"]}, "classes"),
    ({"shards_per_cell": "x"}, "shards_per_cell"),
    ({"verify": "false"}, "verify"),
    ({"differential": "false"}, "differential"),
    ({"differential": 1}, "differential"),
    ({"workload": "telco-billing", "workloads": ["telco-billing"]},
     "workloads"),
    ({"cache": "false"}, "cache"),
]

#: Fields only the service reads (not ``cells_from_spec``).
SERVICE_FIELDS = ("shards_per_cell", "cache")


class TestCellsFromSpec:
    @pytest.mark.parametrize("spec,field", [
        case for case in MALFORMED_SPECS if case[1] not in SERVICE_FIELDS
    ])
    def test_malformed_field_rejected(self, spec, field):
        with pytest.raises(ConfigurationError, match=field):
            cells_from_spec(spec)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            cells_from_spec({"samples": 10, "smaples": 20})

    def test_table_iv_spec(self):
        cells = cells_from_spec(
            {"samples": 10, "kinds": list(KINDS), "verify": False}
        )
        assert [cell.solution.kind for cell in cells] == list(KINDS)
        assert all(cell.num_samples == 10 for cell in cells)

    def test_non_object_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            cells_from_spec(["samples", 10])


class TestCampaignService:
    SPEC = {"samples": SAMPLES, "kinds": list(KINDS), "verify": False}

    def test_concurrent_duplicates_coalesce_then_cache(self, tmp_path):
        async def scenario():
            service = CampaignService(ResultCache(tmp_path))
            try:
                first = await service.submit(self.SPEC)
                second = await service.submit(self.SPEC)
                await asyncio.gather(service.wait(first), service.wait(second))
                third = await service.submit(self.SPEC)
                await service.wait(third)
            finally:
                service.shutdown()
            return first, second, third

        first, second, third = asyncio.run(scenario())
        cells = len(KINDS)
        assert first.status == second.status == third.status == "done"
        # Exactly one job computed each cell; its concurrent twin either
        # latched onto the in-flight future (coalesced) or, if a cell had
        # already landed, read it back from the store (cached).
        assert first.cells_computed + second.cells_computed == cells
        assert (second.cells_coalesced + second.cells_cached
                + second.cells_computed) == cells
        # The sequential third submission is a pure cache hit.
        assert third.cells_cached == cells and third.cells_computed == 0
        assert comparable_summary(first.summary) == comparable_summary(
            third.summary
        )

    def test_bad_specs_rejected_at_submit(self, tmp_path):
        async def scenario():
            service = CampaignService(ResultCache(tmp_path))
            try:
                with pytest.raises(ConfigurationError):
                    await service.submit({"samples": 10, "typo_field": 1})
                with pytest.raises(ConfigurationError):
                    await service.submit(
                        {"samples": SAMPLES, "workload": "no-such-workload"}
                    )
                for spec, field in MALFORMED_SPECS:
                    with pytest.raises(ConfigurationError, match=field):
                        await service.submit(spec)
                assert not service._jobs
            finally:
                service.shutdown()

        asyncio.run(scenario())

    def test_runtime_failure_marks_job_failed(self, tmp_path, monkeypatch):
        from repro.core import campaign

        def explode(task):
            raise RuntimeError("simulator caught fire")

        monkeypatch.setattr(campaign, "_run_shard_task", explode)

        async def scenario():
            service = CampaignService(ResultCache(tmp_path))
            try:
                job = await service.submit(self.SPEC)
                await service.wait(job)
            finally:
                service.shutdown()
            return job

        job = asyncio.run(scenario())
        assert job.status == "failed"
        assert "simulator caught fire" in job.error
        assert job.summary is None

    def test_busy_seconds_exclude_queue_wait(self, tmp_path):
        # Three cells queue behind one worker: each shard's busy time is
        # measured inside its task, so the total cannot exceed the job's
        # wall clock.
        async def scenario():
            service = CampaignService(ResultCache(tmp_path), workers=1)
            try:
                job = await service.submit(
                    {"samples": SAMPLES, "verify": False}
                )
                await service.wait(job)
            finally:
                service.shutdown()
            return job, service.stats()

        job, stats = asyncio.run(scenario())
        assert job.status == "done" and len(job.cells) == 3
        assert 0 < stats["busy_seconds"] <= round(job.wall_seconds, 3)
        assert stats["worker_utilization"] < 1.0

    def test_cache_bypass_spec(self, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path)
            service = CampaignService(cache)
            try:
                spec = dict(self.SPEC, cache=False)
                job = await service.submit(spec)
                await service.wait(job)
                rerun = await service.submit(spec)
                await service.wait(rerun)
            finally:
                service.shutdown()
            return cache, job, rerun

        cache, job, rerun = asyncio.run(scenario())
        assert job.status == rerun.status == "done"
        assert rerun.cells_cached == 0  # nothing stored, nothing served
        assert cache.bypasses == 2 * len(KINDS)
        assert len(cache) == 0


class TestHttpService:
    SPEC = {"samples": SAMPLES, "kinds": list(KINDS), "verify": False,
            "label": "http-e2e"}

    def test_end_to_end_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        with serve_in_background(cache) as server:
            health = get_json(f"{server.base_url}/healthz")
            assert health["status"] == "ok"

            cold = submit_and_wait(server.base_url, self.SPEC)
            assert cold["status"] == "done"
            assert cold["cache"]["computed"] == len(KINDS)

            warm = submit_and_wait(server.base_url, self.SPEC)
            assert warm["cache"]["hits"] == len(KINDS)
            assert warm["cache"]["computed"] == 0
            assert comparable_summary(cold["summary"]) == comparable_summary(
                warm["summary"]
            )

            cold_events = stream_events(server.base_url, cold["job"])
            cold_names = [event["event"] for event in cold_events]
            assert cold_names[0] == "submitted" and cold_names[-1] == "done"
            assert "cell_done" in cold_names and "shard_done" in cold_names

            warm_events = stream_events(server.base_url, warm["job"])
            warm_names = [event["event"] for event in warm_events]
            assert warm_names[0] == "submitted" and warm_names[-1] == "done"
            assert warm_names.count("cell_cached") == len(KINDS)
            assert "shard_done" not in warm_names

            stats = get_json(f"{server.base_url}/stats")
            assert stats["cache"]["hits"] == len(KINDS)
            assert stats["jobs"]["done"] == 2
        assert cache.hit_rate == 0.5

    def test_error_responses(self, tmp_path):
        with serve_in_background(ResultCache(tmp_path)) as server:
            status, payload = request_json(f"{server.base_url}/status/job-99")
            assert status == 404
            status, payload = request_json(
                f"{server.base_url}/submit", {"smaples": 10}
            )
            assert status == 400 and "smaples" in payload["error"]
            for spec, field in MALFORMED_SPECS:
                status, payload = request_json(f"{server.base_url}/submit", spec)
                assert status == 400 and field in payload["error"], spec
            with pytest.raises(ServiceError) as excinfo:
                get_json(f"{server.base_url}/no-such-route")
            assert excinfo.value.status == 404

    def test_result_while_running_is_409(self, tmp_path):
        with serve_in_background(ResultCache(tmp_path)) as server:
            ticket = json.loads(json.dumps(self.SPEC))
            ticket["samples"] = 60  # slow enough to catch mid-flight
            submitted, _ = None, None
            status, payload = request_json(
                f"{server.base_url}/submit", ticket
            )
            assert status == 202
            job_id = payload["job"]
            early, early_payload = request_json(
                f"{server.base_url}/result/{job_id}"
            )
            # Either we caught it running (409) or it already finished (200)
            # on a fast machine; both are correct, never a 5xx.
            assert early in (200, 409)
            final = submit_and_wait(server.base_url, ticket)
            assert final["status"] == "done"


#: Runs ``SCENARIO`` in a fresh interpreter whose shard function ``KILLER``
#: kills its worker process, on a forked two-worker pool: ``die`` in every
#: shard, ``die_in_method1`` only in the method1 cell's.
_DEAD_WORKER = """
import asyncio, json, os, sys, tempfile
from repro.core import campaign
from repro.core.campaign import run_campaign, table_iv_cells
from repro.errors import CampaignError
from repro.service import CampaignService, ResultCache

healthy = campaign._run_shard_task

def die(task):
    os._exit(3)

def die_in_method1(task):
    if task[0].solution.kind == "method1":
        os._exit(3)
    return healthy(task)

campaign._run_shard_task = KILLER
cells = table_iv_cells(num_samples=4, kinds=("software", "method1"),
                       verify_functionally=False)
SCENARIO
print(json.dumps(out))
"""

_RUNNER_SCENARIO = """
try:
    run_campaign(cells, workers=2, mp_start_method="fork")
    out = {"error": None}
except CampaignError as error:
    out = {"error": str(error)}
"""

_SERVICE_SCENARIO = """
async def scenario():
    service = CampaignService(ResultCache(tempfile.mkdtemp()), workers=2,
                              mp_start_method="fork")
    spec = {"samples": 4, "kinds": ["software", "method1"], "verify": False}
    try:
        broken = await service.wait(await service.submit(spec))
        campaign._run_shard_task = healthy
        fresh = await service.wait(await service.submit(spec))
    finally:
        service.shutdown()
    return {"error": broken.error, "status": broken.status,
            "next": fresh.status}

out = asyncio.run(scenario())
"""


def _run_dead_worker(scenario: str, killer: str = "die") -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = _DEAD_WORKER.replace("SCENARIO", scenario).replace("KILLER", killer)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: A dead worker breaks every shard pending in the pool at once, so the
#: error names a shard that was pending, not the one that killed it.
_PENDING_SHARD = (
    r"worker process died and broke the pool while shard \[0, 4\) of "
    r"cell '(software|method1)' was pending"
)


@pytest.mark.skipif(sys.platform == "win32", reason="needs fork")
class TestDeadWorker:
    def test_run_campaign_fails_fast_naming_the_shard(self):
        out = _run_dead_worker(_RUNNER_SCENARIO)
        assert out["error"] is not None
        assert "worker process died" in out["error"]
        assert "shard [0, 4) of cell" in out["error"]

    def test_service_fails_the_job_and_replaces_the_pool(self):
        out = _run_dead_worker(_SERVICE_SCENARIO)
        assert out["status"] == "failed"
        assert "CampaignError" in out["error"]
        assert "shard [0, 4) of cell" in out["error"]
        assert out["next"] == "done"

    # Only the method1 cell's worker dies; both cells' shards may be lost.
    def test_run_campaign_fails_fast_when_one_cell_kills_its_worker(self):
        out = _run_dead_worker(_RUNNER_SCENARIO, killer="die_in_method1")
        assert re.search(_PENDING_SHARD, out["error"] or ""), out

    def test_service_survives_one_cell_killing_its_worker(self):
        out = _run_dead_worker(_SERVICE_SCENARIO, killer="die_in_method1")
        assert out["status"] == "failed"
        assert re.search(_PENDING_SHARD, out["error"]), out
        assert out["next"] == "done"


class TestSerialization:
    def test_shard_report_dict_round_trip_preserves_models(self):
        shard = shard_report_from_dict(dict(
            shard_index=1, start=3, stop=5, raw_cycle_samples=[1, 2],
            hw_cycles=3, sw_cycles=4, icache_accesses=5, icache_hits=4,
            dcache_accesses=3, dcache_hits=2, sim_wall_seconds=0.1,
            check_total=2, verified=True, models=["spike", "rocket"],
        ))
        assert shard.models == ("spike", "rocket")
        again = shard_report_from_dict(shard_report_to_dict(shard))
        assert dataclasses.asdict(again) == dataclasses.asdict(shard)


class TestSubmitAnswersCachedJob:
    """A job whose every cell is cached ends at ``POST /submit``."""

    SPEC = {"samples": SAMPLES, "kinds": list(KINDS), "verify": False}

    def test_cached_job_is_done_when_submit_returns(self, tmp_path):
        async def scenario():
            cache = ResultCache(tmp_path)
            service = CampaignService(cache)
            try:
                cold = await service.wait(await service.submit(self.SPEC))
                warm = await service.submit(self.SPEC)
            finally:
                service.shutdown()
            return cache, cold, warm

        cache, cold, warm = asyncio.run(scenario())
        assert warm.status == "done" and warm.cells_cached == len(KINDS)
        assert comparable_summary(warm.summary) == comparable_summary(
            cold.summary
        )
        # One load per cell per job: the cold job's misses, the warm hits.
        assert cache.misses == len(KINDS) and cache.hits == len(KINDS)

    def test_fully_cached_submit_answers_200_with_the_result(self, tmp_path):
        with serve_in_background(ResultCache(tmp_path)) as server:
            cold = submit_and_wait(server.base_url, self.SPEC)
            status, warm = request_json(f"{server.base_url}/submit", self.SPEC)
            assert status == 200
            assert warm["status"] == "done" and warm["job"] != cold["job"]
            assert warm["cache"] == {"cells": len(KINDS), "hits": len(KINDS),
                                     "coalesced": 0, "computed": 0}
            assert comparable_summary(warm["summary"]) == comparable_summary(
                cold["summary"]
            )
            assert request_json(f"{server.base_url}/result/{warm['job']}") == (
                200, warm
            )
            names = [event["event"] for event in
                     stream_events(server.base_url, warm["job"])]
        assert names == ["submitted"] + ["cell_cached"] * len(KINDS) + ["done"]

    def test_one_uncached_cell_still_answers_202(self, tmp_path):
        with serve_in_background(ResultCache(tmp_path)) as server:
            software = dict(self.SPEC, kinds=[SolutionKind.SOFTWARE])
            submit_and_wait(server.base_url, software)
            status, ticket = request_json(f"{server.base_url}/submit",
                                          self.SPEC)
            assert status == 202 and "summary" not in ticket
            result = wait_for_result(server.base_url, ticket["job"])
        assert result["cache"] == {"cells": len(KINDS), "hits": 1,
                                   "coalesced": 0, "computed": 1}

    def test_submit_and_wait_never_polls(self, tmp_path, monkeypatch):
        import time

        def no_sleep(seconds):
            raise AssertionError(f"client slept {seconds} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        with serve_in_background(ResultCache(tmp_path)) as server:
            cold = submit_and_wait(server.base_url, self.SPEC)
        assert cold["status"] == "done"
        assert cold["cache"]["computed"] == len(KINDS)
        assert cold["summary"]["cells"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_stream_ends_while_a_forked_process_holds_its_socket(tmp_path):
    # A pool worker forked while a /stream connection is open inherits the
    # server's socket; the stream must still end when the job does.
    import http.client
    import signal
    import time

    spec = {"samples": 40, "kinds": list(KINDS), "verify": False}
    with serve_in_background(ResultCache(tmp_path)) as server:
        status, ticket = request_json(f"{server.base_url}/submit", spec)
        assert status == 202
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=20)
        connection.request("GET", f"/stream/{ticket['job']}")
        response = connection.getresponse()  # the server holds the socket
        child = os.fork()
        if child == 0:
            try:
                time.sleep(60)
            finally:
                os._exit(0)
        try:
            lines = response.read().splitlines()
        finally:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            connection.close()
    assert json.loads(lines[-1])["event"] == "done"


class TestKeyMemo:
    def test_key_for_equals_cell_key(self, tmp_path):
        cache = ResultCache(tmp_path, version="v1")
        for cell in _cells():
            for shards in (1, 3):
                assert cache.key_for(cell, shards) == cell_key(
                    cell, shards, "v1"
                )
                assert cache.key_for(cell, shards) == cell_key(
                    cell, shards, "v1"
                )

    def test_memo_stays_within_its_bound(self, tmp_path):
        from repro.service.cache import KEY_MEMO_SIZE

        cache = ResultCache(tmp_path)
        base = _cells()[0]
        cells = [dataclasses.replace(base, seed=seed)
                 for seed in range(KEY_MEMO_SIZE + 50)]
        keys = [cache.key_for(cell) for cell in cells]
        info = cache._key_memo.cache_info()
        assert info.currsize <= KEY_MEMO_SIZE == info.maxsize
        assert len(set(keys)) == len(cells)
        assert keys[-1] == cell_key(cells[-1], 1, cache.version)


def test_non_object_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ef" * 32
    path = cache._entry_path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump([], handle)
    assert cache.load(key) is None
    assert cache.misses == 1 and cache.hits == 0


class TestSendJson:
    def test_one_write_of_compact_json(self):
        from repro.service.server import _send_json

        class Writer:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(bytes(data))

            async def drain(self):
                pass

        payload = {"job": "job-1", "status": "done",
                   "summary": {"cells": [{"label": "software", "n": 3}]}}
        writer = Writer()
        asyncio.run(_send_json(writer, 200, payload))
        assert len(writer.writes) == 1
        head, body = writer.writes[0].split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert body == json.dumps(payload).encode() + b"\n"
        assert json.loads(body) == payload


class TestFinishedJobRetention:
    SPEC = {"samples": 4, "kinds": [SolutionKind.SOFTWARE], "verify": False}

    def test_oldest_finished_jobs_dropped_never_one_in_flight(
            self, tmp_path, monkeypatch):
        from repro.service import engine

        monkeypatch.setattr(engine, "FINISHED_JOBS_KEPT", 2)

        async def scenario():
            service = CampaignService(ResultCache(tmp_path))
            try:
                first = await service.wait(await service.submit(self.SPEC))
                running = await service.submit(dict(self.SPEC, seed=7))
                cached = [await service.submit(self.SPEC) for _ in range(4)]
                kept_while_running = sorted(service.jobs)
                await service.wait(running)
                return (first, running, cached, kept_while_running,
                        sorted(service.jobs), service.stats()["jobs"])
            finally:
                service.shutdown()

        first, running, cached, during, after, counts = asyncio.run(scenario())
        assert all(job.status == "done" for job in cached)
        # Bound 2: the two newest finished jobs, plus the one in flight.
        assert during == sorted([running.job_id, cached[2].job_id,
                                 cached[3].job_id])
        assert after == sorted([running.job_id, cached[3].job_id])
        assert first.job_id not in during
        assert counts == {"total": 6, "in_flight": 0, "done": 6, "failed": 0}

    def test_dropped_job_endpoints_answer_404_naming_it(self, tmp_path,
                                                        monkeypatch):
        from repro.service import engine

        monkeypatch.setattr(engine, "FINISHED_JOBS_KEPT", 1)
        with serve_in_background(ResultCache(tmp_path)) as server:
            old = submit_and_wait(server.base_url, self.SPEC)["job"]
            new = submit_and_wait(server.base_url, self.SPEC)["job"]
            for endpoint in ("status", "result", "stream"):
                status, payload = request_json(
                    f"{server.base_url}/{endpoint}/{old}"
                )
                assert status == 404 and old in payload["error"], endpoint
            status, payload = request_json(f"{server.base_url}/status/{new}")
            assert status == 200 and payload["status"] == "done"
