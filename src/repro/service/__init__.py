"""Campaign-as-a-service: content-addressed result cache + async job engine.

The persistent-service layer described in docs/service.md:

* :mod:`repro.service.cache` — :func:`cell_key` content-addresses one
  campaign cell (inputs + code fingerprint); :class:`ResultCache` persists
  its shard reports so repeated requests become dict lookups;
* :mod:`repro.service.engine` — :class:`CampaignService`, the asyncio job
  engine that satisfies cached cells immediately, coalesces concurrent
  duplicates, and fans novel shards onto a worker pool;
* :mod:`repro.service.server` — the stdlib HTTP endpoints behind
  ``python -m repro.serve``.
"""

from repro.service.cache import ResultCache, cell_key, cell_key_payload, code_version
from repro.service.engine import (
    CampaignService,
    cells_from_spec,
    comparable_summary,
)
from repro.service.server import (
    BackgroundServer,
    ServiceServer,
    serve_forever,
    serve_in_background,
)

__all__ = [
    "BackgroundServer",
    "CampaignService",
    "ResultCache",
    "ServiceServer",
    "cell_key",
    "cell_key_payload",
    "cells_from_spec",
    "code_version",
    "comparable_summary",
    "serve_forever",
    "serve_in_background",
]
