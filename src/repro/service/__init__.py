"""DualPar-as-a-service: coordinator/worker experiment queue + catalog.

The service layer turns the one-shot experiment harness
(:mod:`repro.runner`) into a long-running, multi-tenant system
(ROADMAP item 3):

- :mod:`repro.service.schemas`     -- versioned JSON submission schema
  (unknown fields and foreign schema versions rejected outright);
- :class:`ResultCatalog` and :class:`WorkerPool` -- the runner's result
  store (:mod:`repro.runner.store`) and crash-requeueing worker pool
  (:mod:`repro.runner.pool`), re-exported;
- :mod:`repro.service.coordinator` -- the asyncio coordinator: schema
  gate, sha256 dedup, guard-budget tenant quotas/backpressure, fan-out,
  drain-on-SIGTERM;
- :mod:`repro.service.client`      -- blocking line-JSON client (CLI,
  tests, smoke harness).

CLI: ``repro serve`` / ``repro submit`` / ``repro status`` /
``repro catalog``.  See ``docs/service.md``.
"""

from repro.runner.pool import WorkerPool
from repro.runner.store import (
    RECORD_VERSION,
    CatalogRecord,
    ResultCatalog,
    canonical_json,
    result_to_dict,
)
from repro.service.client import ServiceClient, ServiceError, wait_until_ready
from repro.service.coordinator import Coordinator, ServiceHandle, start_in_thread
from repro.service.schemas import (
    SCHEMA_VERSION,
    ClusterSubmission,
    ExperimentSubmission,
    JobSubmission,
)

__all__ = [
    "RECORD_VERSION",
    "SCHEMA_VERSION",
    "CatalogRecord",
    "ClusterSubmission",
    "Coordinator",
    "ExperimentSubmission",
    "JobSubmission",
    "ResultCatalog",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "WorkerPool",
    "canonical_json",
    "result_to_dict",
    "start_in_thread",
    "wait_until_ready",
]
