"""Minimal stdlib HTTP client for the campaign service.

Used by the CI smoke runner (``python -m repro.serve --smoke``), the
``benchmarks/bench_campaign.py --service`` mode and the tests — anything
that needs to drive a live server without adding a dependency.  A job whose
every cell is cached is answered by ``POST /submit`` itself (``200`` with
the ``/result`` body); any other job is waited for on its ``/stream``,
which ends when the job does, so no latency is rounded to a poll interval.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request


class ServiceError(RuntimeError):
    """A non-2xx response from the campaign service."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


def request_json(url: str, body: dict = None, timeout: float = 30):
    """``(status, payload)`` of one JSON request (POST when ``body`` given)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        try:
            payload = json.loads(error.read().decode())
        except (ValueError, OSError):
            payload = {"error": str(error)}
        return error.code, payload


def get_json(url: str, timeout: float = 30) -> dict:
    status, payload = request_json(url, timeout=timeout)
    if status >= 400:
        raise ServiceError(status, payload)
    return payload


def submit(base_url: str, spec: dict, timeout: float = 30) -> dict:
    """POST a campaign spec; returns the ``202`` ticket, or the ``200``
    ``/result`` payload of a job answered from the cache alone."""
    status, payload = request_json(f"{base_url}/submit", spec, timeout=timeout)
    if status not in (200, 202):
        raise ServiceError(status, payload)
    return payload


def wait_for_result(base_url: str, job_id: str, timeout: float = 600) -> dict:
    """Read ``/stream`` until the job finishes, then fetch ``/result``.

    ``timeout`` bounds each wait for the stream's next event.
    """
    stream_events(base_url, job_id, timeout=timeout)
    status, payload = request_json(f"{base_url}/result/{job_id}")
    if status != 200:
        raise ServiceError(status, payload)
    return payload


def submit_and_wait(base_url: str, spec: dict, timeout: float = 600) -> dict:
    """Submit + wait; returns the ``/result`` payload (summary + cache info)."""
    ticket = submit(base_url, spec)
    if ticket["status"] == "done":  # answered by /submit alone
        return ticket
    return wait_for_result(base_url, ticket["job"], timeout)


def stream_events(base_url: str, job_id: str, timeout: float = 600) -> list:
    """All NDJSON progress events of one job (blocks until it finishes)."""
    events = []
    with urllib.request.urlopen(
        f"{base_url}/stream/{job_id}", timeout=timeout
    ) as response:
        for line in response:
            line = line.strip()
            if line:
                events.append(json.loads(line.decode()))
    return events
