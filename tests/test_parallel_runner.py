"""Coverage for the parallel experiment runner, its result store and pool."""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path
from typing import Iterator

import pytest

from repro import DualParConfig, ExperimentSpec, JobSpec, MpiIoTest, run_experiments
from repro.cluster import paper_spec
from repro.faults import FaultEvent, FaultPlan
from repro.guard import GuardConfig
from repro.runner import parallel
from repro.runner.parallel import WorkerCellError, experiment_fingerprint
from repro.runner.pool import WorkerPool
from repro.runner.store import ResultCatalog, result_to_dict
from repro.workloads.base import FileSpec, Workload

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _spec(strategy="vanilla", quota_kb=None, stripe_unit=64 * 1024, nprocs=8):
    return ExperimentSpec(
        [
            JobSpec(
                "m",
                nprocs,
                MpiIoTest(file_size=4 * 1024 * 1024),
                strategy=strategy,
            )
        ],
        cluster_spec=paper_spec(n_compute_nodes=8, stripe_unit=stripe_unit),
        dualpar_config=(
            DualParConfig(quota_bytes=quota_kb * 1024) if quota_kb is not None else None
        ),
        label=f"{strategy}",
    )


def test_results_in_input_order_and_correct(tmp_path):
    specs = [_spec("vanilla"), _spec("collective"), _spec("dualpar-forced")]
    results = run_experiments(specs, jobs=1, cache_dir=tmp_path)
    assert len(results) == 3
    assert [r.jobs[0].strategy for r in results] == [
        "vanilla",
        "collective",
        "dualpar-forced",
    ]
    assert all(r.jobs[0].throughput_mb_s > 0 for r in results)


def test_pool_matches_inline(tmp_path):
    specs = [_spec("vanilla"), _spec("collective"), _spec("dualpar-forced")]
    inline = run_experiments(specs, jobs=1, cache=False)
    pooled = run_experiments(specs, jobs=2, cache=False)
    assert pickle.dumps(inline) == pickle.dumps(pooled)


def test_cache_hit_returns_byte_identical_result(tmp_path):
    specs = [_spec("dualpar-forced", quota_kb=256)]
    first = run_experiments(specs, jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1
    second = run_experiments(specs, jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.hits == 1
    assert parallel.LAST_RUN_STATS.misses == 0
    assert pickle.dumps(first) == pickle.dumps(second)


def test_fingerprint_sensitive_to_parameters():
    base = _spec("dualpar-forced", quota_kb=256)
    variants = [
        _spec("dualpar-forced", quota_kb=512),  # different quota
        _spec("dualpar-forced", quota_kb=256, stripe_unit=128 * 1024),  # stripe
        _spec("vanilla", quota_kb=256),  # different strategy
        _spec("dualpar-forced", quota_kb=256, nprocs=16),  # different ranks
    ]
    fps = {experiment_fingerprint(s) for s in [base] + variants}
    assert len(fps) == len(variants) + 1


def test_fingerprint_ignores_label():
    a = _spec("vanilla")
    b = ExperimentSpec(a.specs, cluster_spec=a.cluster_spec, label="other name")
    assert experiment_fingerprint(a) == experiment_fingerprint(b)


def test_changed_parameters_miss_the_cache(tmp_path):
    run_experiments([_spec("dualpar-forced", quota_kb=256)], jobs=1, cache_dir=tmp_path)
    run_experiments([_spec("dualpar-forced", quota_kb=512)], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1
    assert parallel.LAST_RUN_STATS.hits == 0


def test_corrupt_cache_file_is_ignored(tmp_path):
    spec = _spec("vanilla")
    good = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    path = ResultCatalog(tmp_path).path_for(experiment_fingerprint(spec))
    assert path.exists()

    # Truncated garbage must be treated as a miss, not an error.
    path.write_bytes(b"\x80corrupt")
    again = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1
    assert pickle.dumps(good) == pickle.dumps(again)

    # Valid JSON that is not a record is also a miss.
    path.write_text('{"not": "a record"}')
    run_experiments([spec], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1


def test_truncated_cache_entry_is_a_miss(tmp_path):
    """A valid entry cut short mid-stream -- the torn-write shape the
    store's fsync-before-rename defends against -- must replay as a miss
    and be rewritten whole."""
    spec = _spec("vanilla")
    good = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    store = ResultCatalog(tmp_path)
    fingerprint = experiment_fingerprint(spec)
    whole = store.get(fingerprint)
    path = store.path_for(fingerprint)

    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    again = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.misses == 1
    assert parallel.LAST_RUN_STATS.hits == 0
    assert pickle.dumps(good) == pickle.dumps(again)
    # Entry healed by the re-run (its provenance records the new run).
    assert store.get(fingerprint).result == whole.result


def test_cache_can_be_disabled(tmp_path):
    spec = _spec("vanilla")
    run_experiments([spec], jobs=1, cache=False, cache_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_miss_is_committed_with_provenance(tmp_path):
    spec = _spec("vanilla")
    (res,) = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    record = ResultCatalog(tmp_path).get(experiment_fingerprint(spec))
    assert record.submission is None
    assert record.result == result_to_dict(res)
    assert record.provenance["attempts"] == 1
    assert record.provenance["wall_time_s"] > 0
    # One flat directory: one record file per cell.
    assert [p.name for p in tmp_path.iterdir()] == [f"{record.fingerprint}.json"]


def _rich_spec(**over):
    base = _spec("dualpar-forced", quota_kb=256)
    return ExperimentSpec(
        base.specs, cluster_spec=base.cluster_spec,
        dualpar_config=base.dualpar_config, **over,
    )


@pytest.mark.parametrize(
    "over, field",
    [
        ({"observe": True}, "metrics"),
        ({"fault_plan": FaultPlan(
            seed=3, events=(FaultEvent(kind="disk_failslow", at_s=0.0, until_s=0.05),))},
         "fault_log"),
        ({"guard": GuardConfig(min_hit_rate=0.5)}, "guard_summary"),
        ({"timeline_window_s": 0.01}, "timeline"),
    ],
    ids=["observed", "faulted", "guarded", "timeline"],
)
def test_store_hit_equals_the_miss_that_wrote_it(tmp_path, over, field):
    spec = _rich_spec(**over)
    (miss,) = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    (hit,) = run_experiments([spec], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.hits == 1
    assert getattr(miss, field)  # the cell really carries the surface
    assert result_to_dict(hit) == result_to_dict(miss)
    if field == "timeline":
        assert hit.timeline.series(0.01) == miss.timeline.series(0.01)


def test_slim_result_measurement_surface(tmp_path):
    (res,) = run_experiments(
        [_spec("dualpar-forced", quota_kb=256)], jobs=1, cache_dir=tmp_path
    )
    assert res.system_throughput_mb_s > 0
    assert res.total_io_time_s > 0
    assert res.total_bytes_served > 0
    assert res.job("m").name == "m"
    with pytest.raises(KeyError):
        res.job("nope")


def test_spec_accepts_list_of_jobspecs():
    spec = _spec("vanilla")
    assert isinstance(spec.specs, tuple)


# ---------------------------------------------------------------------------
# worker failure attribution (ISSUE 9 satellite)
# ---------------------------------------------------------------------------


class _BoomWorkload(Workload):
    """Explodes mid-stream inside the worker process."""

    name = "boom"

    def files(self) -> list[FileSpec]:
        return [FileSpec("boom.dat", 1024 * 1024)]

    def ops(self, rank: int, size: int) -> Iterator:
        raise RuntimeError("kaboom in ops")
        yield  # pragma: no cover - unreachable


def _boom_spec():
    return ExperimentSpec(
        [JobSpec("b", 2, _BoomWorkload())],
        cluster_spec=paper_spec(n_compute_nodes=2),
        label="boom-cell",
    )


def test_worker_failure_carries_child_traceback():
    """A cell that dies inside a pool worker must surface as a
    WorkerCellError naming the cell and carrying the child's full
    traceback text across the process boundary -- not a bare exception
    with only parent-side frames."""
    with pytest.raises(WorkerCellError) as excinfo:
        run_experiments([_spec("vanilla"), _boom_spec()], jobs=2, cache=False)
    err = excinfo.value
    assert err.label == "boom-cell"
    # The child traceback survived the pool boundary verbatim.
    assert "Traceback (most recent call last)" in err.traceback_text
    assert "kaboom in ops" in err.traceback_text
    assert "_BoomWorkload" in err.traceback_text or "in ops" in err.traceback_text
    # And the rendered message shows it too.
    assert "boom-cell" in str(err)
    assert "kaboom in ops" in str(err)


def test_inline_run_raises_the_original_exception():
    # jobs=1 runs in-process: no wrapping, the real exception propagates.
    with pytest.raises(RuntimeError, match="kaboom in ops"):
        run_experiments([_boom_spec()], jobs=1, cache=False)


class _CrashOnceWorkload(MpiIoTest):
    """Kills its worker process the first time any rank starts (the
    marker file remembers across processes), like an OOM kill."""

    def __init__(self, marker: str, **kw) -> None:
        super().__init__(**kw)
        self.marker = marker

    def ops(self, rank: int, size: int):
        if not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(13)
        return super().ops(rank, size)


def test_worker_killed_mid_cell_is_requeued(tmp_path):
    crash = ExperimentSpec(
        [JobSpec("m", 4, _CrashOnceWorkload(str(tmp_path / "crashed"),
                                            file_size=1024 * 1024))],
        cluster_spec=paper_spec(n_compute_nodes=4),
        label="crash-once",
    )
    store = tmp_path / "store"
    pooled = run_experiments([crash, _spec("vanilla")], jobs=2, cache_dir=store)
    assert (tmp_path / "crashed").exists()
    record = ResultCatalog(store).get(experiment_fingerprint(crash))
    assert record.provenance["attempts"] == 2
    # The requeued cell computed what an undisturbed run computes.
    inline = run_experiments([crash], jobs=1, cache=False)
    assert pickle.dumps(pooled[:1]) == pickle.dumps(inline)


def test_pool_start_submit_stop_cycles_raise_nothing(monkeypatch):
    """stop() and the monitor thread both reap workers; neither may
    close a pipe the other already closed."""
    thread_errors: list = []
    monkeypatch.setattr(threading, "excepthook", thread_errors.append)
    spec = ExperimentSpec(
        [JobSpec("t", 1, MpiIoTest(file_size=64 * 1024))],
        cluster_spec=paper_spec(n_compute_nodes=1),
    )
    for _ in range(100):
        events: list = []
        pool = WorkerPool(2, deliver=events.append)
        pool.start()
        for job in range(4):
            pool.submit(job, spec)
        assert pool.wait_idle(60)
        pool.stop()
        assert sorted(e[1] for e in events if e[0] == "done") == [0, 1, 2, 3]
    assert thread_errors == []


def test_import_repro_leaves_the_service_layer_out():
    code = (
        "import sys, repro; "
        "print(sorted(m for m in ('asyncio', 'repro.service') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# cross-process store race
# ---------------------------------------------------------------------------


def _race_entry(cache_dir, barrier, results):
    """One racer: start in lockstep, run the same cell, then re-read it
    a few times; every read must be byte-identical to the first run."""
    spec = _spec("vanilla")
    barrier.wait()
    first = run_experiments([spec], jobs=1, cache_dir=cache_dir)
    blobs = [pickle.dumps(first)]
    for _ in range(3):
        again = run_experiments([spec], jobs=1, cache_dir=cache_dir)
        blobs.append(pickle.dumps(again))
    results.put((len(set(blobs)) == 1, blobs[0]))


def test_cross_process_cache_race_single_entry_no_corrupt_reads(tmp_path):
    """Two processes racing the same store key must yield exactly one
    stored entry and zero corrupt reads (extends the truncated-entry
    -is-miss test above to real concurrency: atomic fsync-before-rename
    means a reader sees a whole entry or a miss, never a torn one)."""
    ctx = multiprocessing.get_context()
    barrier = ctx.Barrier(2)
    results = ctx.Queue()
    procs = [
        ctx.Process(target=_race_entry, args=(tmp_path, barrier, results))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    outcomes = [results.get(timeout=300) for _ in procs]
    for p in procs:
        p.join(300)
        assert p.exitcode == 0
    # Zero corrupt reads in either process, and both saw the same bytes.
    assert all(consistent for consistent, _ in outcomes)
    assert len({blob for _, blob in outcomes}) == 1
    # Exactly one whole stored entry, no leftover temp files.
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 1
    assert not list(tmp_path.glob("*.tmp*"))
    # The surviving entry replays as a hit, byte-identical to the race.
    final = run_experiments([_spec("vanilla")], jobs=1, cache_dir=tmp_path)
    assert parallel.LAST_RUN_STATS.hits == 1
    assert pickle.dumps(final) == outcomes[0][1]
