"""Passes, tallies and the two kinds of benchmark run (see run.py).

The end-to-end times (``wall_s``, ``setup_s``) are medians scaled to a
reference host speed (``at_ref_speed``); the per-layer times are raw
host seconds, with ``host.calib_s`` beside them.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import multiprocessing
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import repro.runner.parallel as parallel
from layertrace import LayerTracer
from repro import run_experiments
from workloads import (
    Workload,
    check,
    digest,
    error_vs_paper,
    finish_stats,
    record,
    sim_stats,
)

HERE = Path(__file__).resolve().parent
#: Working directory for the result stores of pooled passes.
WORKDIR = HERE.parent / ".perfbench_work"
#: Fresh-interpreter set-up samples per end-to-end run (median reported).
SETUP_SAMPLES = 7
#: Timed all-hit replays of the result store per traced run.
REPLAYS = 5
#: What one calibration sample (``calib_sample``) takes on a quiet 2-vCPU
#: x86-64 VM with Python 3.11.  The end-to-end times are scaled to a host
#: of that speed: a shared cloud VM changes speed by up to 2x within
#: minutes, and the samples, taken between passes, track it.
CALIB_REF_S = 0.06

_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: Unit of every metric, as BENCHMARK.json declares it.
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


# -- passes ------------------------------------------------------------------


@dataclass
class Pass:
    """One run of every cell of a workload, in some order."""

    wall_s: float
    #: Host seconds per cell, in cell order (serial passes only).
    cell_s: list
    #: Digest record per cell in cell order; None where the cell raised.
    records: list
    throughput: dict
    #: sim_stats per cell in cell order (serial passes only).
    stats: list
    #: Cells that raised or failed their checks.
    failed: int = 0


def _fail(p: Pass, workload: Workload, label: str, why: str) -> None:
    p.failed += 1
    print(f"perfbench: {workload.name}/{label} failed: {why}", file=sys.stderr)


def _take(p: Pass, workload: Workload, i: int, res: Any) -> None:
    """Check and record cell ``i``'s result."""
    cell = workload.cells[i]
    problem = check(workload, cell, res)
    if problem is not None:
        _fail(p, workload, cell.label, problem)
    p.records[i] = record(cell, res)
    p.throughput[cell.label] = res.system_throughput_mb_s


def run_serial(workload: Workload, order: list) -> Pass:
    """Run the cells one after another, in ``order``, with ``run_experiment``."""
    n = len(workload.cells)
    p = Pass(0.0, [0.0] * n, [None] * n, {}, [None] * n)
    for i in order:
        cell = workload.cells[i]
        t = perf_counter()
        try:
            res = cell.run()
        except Exception as exc:  # a failing cell is counted, not fatal
            p.cell_s[i] = perf_counter() - t
            _fail(p, workload, cell.label, f"{type(exc).__name__}: {exc}")
            continue
        p.cell_s[i] = perf_counter() - t
        _take(p, workload, i, res)
        p.stats[i] = sim_stats(res)
    p.wall_s = sum(p.cell_s)
    return p


def run_pooled(workload: Workload, order: list, store: Path, jobs: int) -> Pass:
    """Submit the cells, in ``order``, to ``run_experiments``' process pool
    and result store ``store``."""
    n = len(workload.cells)
    p = Pass(0.0, [], [None] * n, {}, [])
    t = perf_counter()
    try:
        results = run_experiments(
            [workload.cells[i].spec for i in order], jobs=jobs, cache_dir=store
        )
    except Exception as exc:  # the submission failed: every cell it carried counts
        p.wall_s = perf_counter() - t
        for i in order:
            _fail(p, workload, workload.cells[i].label, f"{type(exc).__name__}: {exc}")
        return p
    p.wall_s = perf_counter() - t
    for i, res in zip(order, results):
        _take(p, workload, i, res)
    return p


def timed_passes(run_pass: Callable[[], Pass], seconds: float,
                 sample: Callable[[], float]) -> tuple:
    """Run passes until another one would overrun ``seconds`` (at least
    one), with a calibration ``sample`` before each and after the last:
    (passes, samples)."""
    passes: list = []
    calib = [sample()]
    start = perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass())
        calib.append(sample())
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes, calib


class Tally:
    """Operations attempted and failed, and the digests they produced."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: set = set()
        self.throughput: dict = {}
        #: Simulated results that differ from the reference.
        self.mismatches: list = []

    def add(self, p: Pass) -> None:
        self.attempted += len(p.records)
        self.failed += p.failed
        if None not in p.records:
            self.digests.add(digest(p.records))
        self.throughput.update(p.throughput)

    def compare_stats(self, stats: dict) -> None:
        ref = self.workload.reference
        if ref is not None and stats != ref["stats"]:
            self.mismatches.append(f"simulated-time stats {stats} differ from {ref['stats']}")

    def problems(self) -> list:
        """Why the simulated results are wrong, beyond failed cells."""
        out = list(self.mismatches)
        if len(self.digests) != 1:
            out.append(f"{len(self.digests)} different digests across complete passes")
        ref = self.workload.reference
        if ref is not None and self.digests - {ref["digest"]}:
            out.append(f"digest differs from the reference {ref['digest']}")
        return out

    @property
    def correct(self) -> bool:
        """Every cell passed its checks, every pass gave one digest, and the
        simulated results are the reference's."""
        return self.failed == 0 and not self.problems()

    def error_vs_paper(self) -> dict:
        """``sim.error_vs_paper``, or nothing if a cell of the ratio never
        produced a result."""
        err = error_vs_paper(self.workload, self.throughput)
        return {} if err is None else {"sim.error_vs_paper": err}


def result_line(tally: Tally, metrics: dict) -> str:
    name = tally.workload.name
    for why in tally.problems():
        print(f"perfbench: {name}: {why}", file=sys.stderr)
    lost = (tally.workload.reference or {}).get("lost_writes", {})
    for label, n in sorted(lost.items()):
        print(f"perfbench: {name}/{label}: known model defect: DualPar write-back "
              f"loses {n} B (see perfbench/README.md)", file=sys.stderr)
    return json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    })


def _order(rng: random.Random, n: int) -> list:
    return rng.sample(range(n), n)


@contextlib.contextmanager
def _fresh_store() -> Iterator[Path]:
    """An empty result-store directory, removed (with WORKDIR, once empty)
    on exit."""
    WORKDIR.mkdir(exist_ok=True)
    store = Path(tempfile.mkdtemp(prefix="store-", dir=WORKDIR))
    try:
        yield store
    finally:
        shutil.rmtree(store, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()


def _pooled_pass(workload: Workload, rng: random.Random, jobs: int) -> Pass:
    with _fresh_store() as store:
        return run_pooled(workload, _order(rng, len(workload.cells)), store, jobs)


# -- host-side probes ---------------------------------------------------------


def setup_seconds(name: str) -> tuple:
    """Host seconds a fresh interpreter takes to import ``repro``, load the
    C accelerator and build the workload's specs, per probe, with a
    calibration sample before each probe and after the last: (probes,
    samples).  A first, untimed probe builds the accelerator and bytecode
    when they are stale."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name]

    def probe() -> float:
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=300)
        return float(out.stdout.split()[-1])

    probe()
    probes, calib = [], [calib_sample()]
    for _ in range(SETUP_SAMPLES):
        probes.append(probe())
        calib.append(calib_sample())
    return probes, calib


class _Event:
    __slots__ = ("t", "key", "args")

    def __init__(self, t: float, key: int, args: list) -> None:
        self.t, self.key, self.args = t, key, args


def _accumulate():
    total = 0
    while True:
        total += yield total


def calib_sample() -> float:
    """Seconds a fixed piece of pure Python takes: the host's current
    speed.  It does what the simulator's host time goes to -- arithmetic,
    small objects in a dict of a few MB, a heap of events resuming
    generators -- without calling any of the program's code, so a change
    to the program leaves it alone."""
    t = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    for _ in range(4):  # a table of ~2 MB, so peak_rss_mb stays the program's
        table = {}
        for i in range(10_000):
            table[(i * 2654435761) & 0xFFFFFF] = _Event(i * 0.5, i, [i])
        for key in list(table)[::3]:
            acc += table[key].key
    gens = [_accumulate() for _ in range(64)]
    for g in gens:
        next(g)
    heap: list = []
    for i in range(25_000):
        heapq.heappush(heap, (i * 7919 % 10007, i, gens[i & 63]))
        if len(heap) > 256:
            heapq.heappop(heap)[2].send(1)
    return perf_counter() - t


def _helper(conn) -> None:
    """A calibration helper process: one sample per request, until None."""
    while conn.recv() is not None:
        conn.send(calib_sample())


@contextlib.contextmanager
def wide_calib(width: int) -> Iterator[Callable[[], float]]:
    """A calibration sample taken on ``width`` processes at once (this one
    and ``width - 1`` helpers), as the mean of their times: the speed of a
    host that runs a pool of ``width`` workers.  A single sample tracks the
    speed of one core, and a pooled pass waits for its slowest worker."""
    helpers = []
    try:
        for _ in range(width - 1):
            parent, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(target=_helper, args=(child,), daemon=True)
            proc.start()
            helpers.append((parent, proc))

        def sample() -> float:
            for conn, _ in helpers:
                conn.send(True)
            own = calib_sample()
            return statistics.fmean([own] + [conn.recv() for conn, _ in helpers])

        yield sample
    finally:
        for conn, proc in helpers:
            with contextlib.suppress(OSError):
                conn.send(None)
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()


def at_ref_speed(times: list, calib: list) -> float:
    """The median of ``times``, each scaled by CALIB_REF_S over the mean of
    the calibration samples taken just before and just after it."""
    return statistics.median(
        t * 2 * CALIB_REF_S / (before + after)
        for t, before, after in zip(times, calib, calib[1:])
    )


# -- the two kinds of run ----------------------------------------------------


def end_to_end(workload: Workload, seed: int, seconds: float, jobs: int) -> tuple:
    """Untraced figure regeneration: the end-to-end metrics."""
    probes, setup_calib = setup_seconds(workload.name)
    rng = random.Random(seed)
    if workload.pooled:
        width = min(jobs, len(workload.cells))
        run_pass = lambda: _pooled_pass(workload, rng, jobs)  # noqa: E731
    else:
        width = 1
        run_pass = lambda: run_serial(workload, _order(rng, len(workload.cells)))  # noqa: E731
    with wide_calib(width) as sample:
        passes, calib = timed_passes(run_pass, seconds, sample)
    tally = Tally(workload)
    for p in passes:
        tally.add(p)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.pooled:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    walls = [p.wall_s for p in passes]
    print(f"perfbench: {workload.name}: {len(passes)} passes; unscaled medians: pass "
          f"{statistics.median(walls)!r} s, set-up {statistics.median(probes)!r} s, "
          f"calibration {statistics.median(calib)!r} s (reference {CALIB_REF_S} s)",
          file=sys.stderr)
    metrics = {
        "wall_s": at_ref_speed(walls, calib),
        "setup_s": at_ref_speed(probes, setup_calib),
        "peak_rss_mb": peak_kb / 1024,
        **tally.error_vs_paper(),
    }
    return tally, metrics


def traced(workload: Workload, seed: int, seconds: float, jobs: int) -> tuple:
    """Untraced serial passes, one traced pass and a result-store round
    trip: the per-layer metrics."""
    rng = random.Random(seed)
    n = len(workload.cells)
    tally = Tally(workload)
    plain, calib = timed_passes(lambda: run_serial(workload, _order(rng, n)), seconds / 2,
                                calib_sample)
    for p in plain:
        tally.add(p)
    gc.collect()
    with LayerTracer() as tracer:
        traced_pass = run_serial(workload, _order(rng, n))
    tally.add(traced_pass)

    metrics = tracer.metrics(traced_pass.wall_s)
    stats = plain[0].stats
    if None not in stats:  # else a cell raised, and ``correct`` is already False
        sim = finish_stats(stats)
        metrics.update(sim)
        tally.compare_stats(sim)
    for group in ("vanilla", "collective", "dualpar"):
        metrics[f"cell.{group}.wall_s"] = sum(
            (statistics.median(p.cell_s[i] for p in plain)
             for i, cell in enumerate(workload.cells)
             if cell.strategy == group),
            0.0,
        )
    metrics.update(_store_round_trip(workload, rng, jobs, tally))
    metrics["trace.overhead_frac"] = (
        traced_pass.wall_s / statistics.median(p.wall_s for p in plain) - 1.0
    )
    metrics["host.calib_s"] = statistics.median(calib)
    return tally, metrics


def _store_round_trip(workload: Workload, rng: random.Random, jobs: int,
                      tally: Tally) -> dict:
    """A cold pooled pass into a fresh result store, then all-hit replays."""
    order = _order(rng, len(workload.cells))
    with _fresh_store() as store:
        tally.add(run_pooled(workload, order, store, jobs))
        misses = parallel.LAST_RUN_STATS.misses
        kb = sum(f.stat().st_size for f in store.iterdir()) / 1024
        replays = []
        for _ in range(REPLAYS):
            p = run_pooled(workload, order, store, jobs)
            tally.add(p)
            replays.append(p.wall_s)
        hits = parallel.LAST_RUN_STATS.hits
    return {"runner.replay_s": statistics.median(replays), "runner.store_hits": hits,
            "runner.store_misses": misses, "runner.store_kb": kb}
