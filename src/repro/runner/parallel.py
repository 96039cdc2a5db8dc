"""Parallel experiment fan-out over the result store and the worker pool.

The benchmark grids run dozens of *independent* ``run_experiment`` cells:
each cell builds its own :class:`~repro.sim.core.Simulator`, so no state
crosses cells and running them in separate processes cannot change any
result.  This module provides:

- :class:`ExperimentSpec` -- a picklable description of one cell (the
  exact arguments of :func:`repro.runner.experiment.run_experiment`);
- :class:`SlimExperimentResult` -- the picklable subset of
  :class:`~repro.runner.experiment.ExperimentResult` the benches consume
  (per-job measurements plus a few cluster/DualPar summaries);
- :func:`run_spec` -- evaluate one cell and keep the full result (what
  ``repro run``/``report`` print from);
- :func:`run_experiments` -- evaluate many cells, fanning out over a
  :class:`~repro.runner.pool.WorkerPool` and memoising each cell as a
  record of the :class:`~repro.runner.store.ResultCatalog` keyed by a
  fingerprint of (workloads, cluster spec, strategy, config, code
  version).  Re-running a sweep only recomputes changed cells.

Environment knobs::

    REPRO_CATALOG   result store directory (default ``.repro_catalog``)
    REPRO_JOBS      default worker count (default: cpu count)
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import queue
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.cluster import ClusterSpec
from repro.core.config import DualParConfig
from repro.faults import FaultPlan
from repro.runner.experiment import (
    ExperimentResult,
    JobResult,
    JobSpec,
    run_experiment,
)

__all__ = [
    "CacheStats",
    "ExperimentSpec",
    "SlimExperimentResult",
    "WorkerCellError",
    "experiment_fingerprint",
    "run_experiments",
    "run_spec",
]


class WorkerCellError(RuntimeError):
    """An experiment cell failed inside a pool worker.

    The worker sends home ``traceback.format_exc()`` (or why it died),
    so the error names the failing cell and shows exactly where in the
    child it failed, not only parent-side frames.
    """

    def __init__(self, label: str, traceback_text: str) -> None:
        self.label = label
        self.traceback_text = traceback_text
        super().__init__(
            f"experiment cell {label or '<unlabelled>'!r} failed in worker:\n"
            f"{traceback_text}"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One independent experiment cell (the arguments of run_experiment)."""

    specs: tuple[JobSpec, ...]
    cluster_spec: Optional[ClusterSpec] = None
    dualpar_config: Optional[DualParConfig] = None
    timeline_window_s: Optional[float] = None
    limit_s: float = 1e6
    #: Attach an observability layer to the cell's simulator and carry the
    #: end-of-run metrics snapshot back in the slim result.
    observe: bool = False
    #: Deterministic fault schedule replayed against the cell (or None).
    fault_plan: Optional[FaultPlan] = None
    #: Safety-governor config (repro.guard.GuardConfig) or None to run
    #: unguarded; part of the cache fingerprint.
    guard: Optional[Any] = None
    #: Free-form display label; not part of the cache fingerprint.
    label: str = ""

    def __post_init__(self) -> None:
        # Accept lists for convenience; store a tuple so the spec hashes.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))


@dataclass
class SlimExperimentResult:
    """The storable view of one cell's result (see ``result_to_dict``).

    Mirrors the measurement surface of :class:`ExperimentResult`; the live
    simulator, cluster, and MPI job objects are deliberately absent.
    """

    jobs: list[JobResult]
    makespan_s: float
    #: Bytes the data servers moved (requested + hole-filled + readahead).
    total_bytes_served: int = 0
    #: DualPar EMC (time, job name, new mode) transitions, if any.
    dualpar_transitions: list[tuple[float, str, str]] = field(default_factory=list)
    #: Windowed throughput timeline, when timeline_window_s was given.
    timeline: Optional[Any] = None
    #: End-of-run metrics snapshot, when the cell ran with observe=True.
    metrics: Optional[dict] = None
    #: (time, kind, phase, target) fault events, when a plan was injected.
    fault_log: list = field(default_factory=list)
    #: Guard (time, job, state, reason) transitions, when a guard ran.
    guard_transitions: list = field(default_factory=list)
    #: SafetyGovernor.summary() dict, when a guard ran.
    guard_summary: Optional[dict] = None

    @property
    def system_throughput_mb_s(self) -> float:
        total = sum(j.total_bytes for j in self.jobs)
        return total / 1e6 / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def total_io_time_s(self) -> float:
        return sum(j.io_time_s for j in self.jobs)

    def job(self, name: str) -> JobResult:
        for j in self.jobs:
            if j.name == name:
                return j
        raise KeyError(name)

    @classmethod
    def from_full(cls, res: ExperimentResult) -> "SlimExperimentResult":
        return cls(
            jobs=list(res.jobs),
            makespan_s=res.makespan_s,
            total_bytes_served=res.cluster.total_bytes_served(),
            dualpar_transitions=list(res.dualpar.transitions) if res.dualpar else [],
            timeline=res.timeline,
            metrics=res.metrics,
            fault_log=list(res.faults.log) if res.faults is not None else [],
            guard_transitions=list(res.guard.transitions) if res.guard else [],
            guard_summary=res.guard.summary() if res.guard else None,
        )


@dataclass
class CacheStats:
    """Hit/miss accounting for the most recent :func:`run_experiments`."""

    hits: int = 0
    misses: int = 0


#: Stats of the most recent run_experiments() call (for tests/reporting).
LAST_RUN_STATS = CacheStats()


# -- fingerprinting -----------------------------------------------------

_CODE_FINGERPRINT: Optional[str] = None


def _code_fingerprint() -> str:
    """Hash of every .py file in the repro package: a new code version
    invalidates all cached results."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        import repro

        pkg_root = Path(repro.__file__).parent
        h = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            h.update(str(path.relative_to(pkg_root)).encode())
            h.update(path.read_bytes())
        _CODE_FINGERPRINT = h.hexdigest()
    return _CODE_FINGERPRINT


def _canonical(obj: Any) -> Any:
    """Reduce obj to a deterministic, repr-stable structure."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__qualname__,
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, dict):
        return ("dict", tuple((k, _canonical(v)) for k, v in sorted(obj.items())))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in obj))
    if hasattr(obj, "__dict__"):
        # Workloads and other plain config objects: class + attributes.
        return (
            type(obj).__qualname__,
            tuple((k, _canonical(v)) for k, v in sorted(vars(obj).items())),
        )
    return repr(obj)


def experiment_fingerprint(spec: ExperimentSpec) -> str:
    """Deterministic key for one cell: parameters + code version."""
    # A disabled guard config runs bit-identically to no guard at all
    # (run_experiment never builds the governor), so both share a key.
    guard = spec.guard
    if guard is not None and not getattr(guard, "enabled", True):
        guard = None
    payload = _canonical(
        (
            tuple(spec.specs),
            spec.cluster_spec,
            spec.dualpar_config,
            spec.timeline_window_s,
            spec.limit_s,
            # Observed cells carry a metrics snapshot a plain cached cell
            # would lack, so the flag must key the cache.
            spec.observe,
            spec.fault_plan,
            # Guarded cells behave differently (budgets, governor); the
            # config must key the cache.
            guard,
        )
    )
    h = hashlib.sha256()
    h.update(_code_fingerprint().encode())
    h.update(repr(payload).encode())
    return h.hexdigest()


# -- execution ----------------------------------------------------------


def run_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Evaluate one cell from scratch; return the full, live result."""
    observe = None
    if spec.observe:
        from repro.obs import Observability

        observe = Observability()
    return run_experiment(
        list(spec.specs),
        cluster_spec=spec.cluster_spec,
        dualpar_config=spec.dualpar_config,
        timeline_window_s=spec.timeline_window_s,
        limit_s=spec.limit_s,
        observe=observe,
        fault_plan=spec.fault_plan,
        guard=spec.guard,
    )


def _run_spec(spec: ExperimentSpec) -> SlimExperimentResult:
    """Worker entry point: evaluate one cell, keep its storable view."""
    return SlimExperimentResult.from_full(run_spec(spec))


def _default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            pass
    return os.cpu_count() or 1


def run_experiments(
    specs: list[ExperimentSpec],
    jobs: Optional[int] = None,
    cache: bool = True,
    cache_dir: Optional[Path] = None,
) -> list[SlimExperimentResult]:
    """Evaluate independent experiment cells, in parallel and memoised.

    Results come back in input order.  Cells catalogued in the result
    store at ``cache_dir`` (default ``$REPRO_CATALOG``) are served
    without simulating; the remaining cells fan out over a worker pool
    of ``jobs`` processes (``jobs=1`` or a single miss runs inline) and
    are committed to the store unless ``cache`` is False.  A miss is
    returned in its stored form, so it equals a later hit on it.
    """
    # The store and the pool build on this module's cell definition.
    from repro.runner.pool import WorkerPool
    from repro.runner.store import (
        CatalogRecord,
        ResultCatalog,
        result_from_dict,
        result_to_dict,
    )

    global LAST_RUN_STATS
    stats = CacheStats()
    LAST_RUN_STATS = stats
    if jobs is None:
        jobs = _default_jobs()
    store = ResultCatalog(cache_dir) if cache else None
    fingerprints = [experiment_fingerprint(s) for s in specs] if cache else []

    results: list[Optional[SlimExperimentResult]] = [None] * len(specs)
    misses: list[int] = []
    for i in range(len(specs)):
        record = store.get(fingerprints[i]) if store is not None else None
        if record is not None:
            results[i] = result_from_dict(record.result)
        else:
            misses.append(i)
    stats.hits = len(specs) - len(misses)
    stats.misses = len(misses)

    def finish(i: int, result: dict, worker_id: Optional[int], wall_s: float,
               attempts: int) -> None:
        results[i] = result_from_dict(result)
        if store is not None:
            provenance = {"worker_id": worker_id, "attempts": attempts, "wall_time_s": wall_s}
            # Memoising is best-effort: a failed commit costs a recompute, not the run.
            with contextlib.suppress(OSError):
                store.put(CatalogRecord(fingerprints[i], _code_fingerprint(), None, result,
                                        provenance))

    if len(misses) <= 1 or jobs <= 1:
        for i in misses:
            t0 = time.perf_counter()
            result = result_to_dict(_run_spec(specs[i]))
            finish(i, result, None, time.perf_counter() - t0, 1)
        return results  # type: ignore[return-value]

    events: queue.SimpleQueue = queue.SimpleQueue()
    pool = WorkerPool(min(jobs, len(misses)), deliver=events.put)
    pool.start()
    try:
        for i in misses:
            pool.submit(i, specs[i])
        remaining = len(misses)
        while remaining:
            event = events.get()
            if event[0] == "done":  # ("done", i, result, worker_id, wall_s, attempts)
                finish(*event[1:])
                remaining -= 1
            elif event[0] == "failed":
                raise WorkerCellError(specs[event[1]].label, event[2])
            # "requeue": the pool already handed the cell to a fresh worker.
    finally:
        pool.stop(drain=False)
    return results  # type: ignore[return-value]
