"""Unified experiment orchestration: specs, caching, one request pipeline.

The layer every consumer of the simulator goes through:

* :mod:`repro.exp.spec` -- declarative grids (``ExperimentSpec``) and
  single runs (``RunRequest``) with content fingerprints,
* :mod:`repro.exp.cache` -- on-disk content-addressed result store,
  shared with the engine's ideal/slow-only baseline helpers,
* :mod:`repro.exp.runner` -- request execution and indexed results;
  ``run_requests``/``run_experiment`` entry points,
* :mod:`repro.exp.store` -- SQLite result-store backend for
  campaign-scale sweeps (batched commits, WAL, JSON-cache compatible),
* :mod:`repro.exp.service` -- the one request pipeline: campaign
  driver (dedup, cache, replay warm-up, execution, storage)
  over a persistent worker pool, with per-request failure isolation,
* :mod:`repro.exp.report` -- the paper's recurring table shapes.
"""

from repro.exp.cache import (
    CACHE_VERSION,
    ResultStore,
    content_hash,
    get_default_store,
    reset_default_store,
    set_default_store,
    workload_fingerprint,
)
from repro.exp.runner import (
    ExperimentResult,
    execute_request,
    run_experiment,
    run_requests,
)
from repro.exp.service import (
    CampaignDriver,
    CampaignResult,
    FailureRecord,
    RequestExecutionError,
    WorkerPool,
    resolve_jobs,
    run_campaign,
)
from repro.exp.spec import (
    DEFAULT_MAX_WINDOWS,
    ExperimentSpec,
    PolicySpec,
    RunRequest,
    WorkloadSpec,
)
from repro.exp.store import SqliteResultStore, open_store

__all__ = [
    "CACHE_VERSION",
    "CampaignDriver",
    "CampaignResult",
    "DEFAULT_MAX_WINDOWS",
    "ExperimentResult",
    "ExperimentSpec",
    "FailureRecord",
    "PolicySpec",
    "RequestExecutionError",
    "ResultStore",
    "RunRequest",
    "SqliteResultStore",
    "WorkerPool",
    "WorkloadSpec",
    "content_hash",
    "execute_request",
    "get_default_store",
    "open_store",
    "reset_default_store",
    "resolve_jobs",
    "run_campaign",
    "run_experiment",
    "run_requests",
    "set_default_store",
    "workload_fingerprint",
]
