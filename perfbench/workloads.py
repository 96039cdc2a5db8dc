"""The benchmark's workloads: cells, output checks, digest, paper error.

Every workload runs on ``paper_spec()`` and is a fixed list of
experiment cells.  The model is deterministic, so a cell's simulated
result depends only on its inputs; the benchmark seed only permutes the
order in which cells run (see ``run.py``).

A cell *fails* if it raises (including the kernel's ``limit_s`` stop),
if any job moved a byte count other than the total its workload
declares, or if the pfs layer did not carry those bytes (see
``check``).  ``reference.json`` holds what the model produced when it
was last regenerated (``make_reference.py``): a run whose simulated
results differ from it is not correct.

One model defect is pinned rather than failed: DualPar's write-back
drops bytes written into a chunk while that chunk's write-back is in
flight (``Crm.writeback_all`` cleans the whole chunk afterwards), so on
some write cells the pfs clients write fewer bytes than the jobs
declared.  ``reference.json`` records that shortfall per cell under
``lost_writes``; a cell must lose exactly that many bytes, every run
names the loss on standard error, and a model that stops losing them
no longer matches the reference (see README.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro import (
    Btio,
    DualParConfig,
    ExperimentSpec,
    JobSpec,
    MpiIoTest,
    run_experiment,
)
from repro.cluster import paper_spec
from repro.runner.parallel import SlimExperimentResult

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Simulated-time statistics summed over a workload's cells, in the
#: order ``sim_stats`` returns them; ``finish_stats`` turns them into the
#: per-layer ratios.
_STAT_KEYS = (
    "busy_s", "seek_sectors", "seek_requests", "depth_sum", "depth_n",
    "unit_sectors", "units", "delay_sum", "delay_n", "cache_hits",
    "cache_gets", "served_bytes", "job_bytes", "io_s", "compute_s",
)


@dataclass(frozen=True)
class Cell:
    """One experiment cell: a ``run_experiment`` call and what it must move."""

    label: str
    #: vanilla | collective | dualpar: groups cells for ``cell.<s>.wall_s``.
    strategy: str
    spec: ExperimentSpec

    def declared(self) -> list[tuple[str, int, int]]:
        """(job, bytes_read, bytes_written) each job's workload declares."""
        out = []
        for job in self.spec.specs:
            size = sum(f.size for f in job.workload.files())
            reads = job.workload.op == "R"
            out.append((job.name, size if reads else 0, 0 if reads else size))
        return out

    def run(self) -> Any:
        s = self.spec
        return run_experiment(
            list(s.specs),
            cluster_spec=s.cluster_spec,
            dualpar_config=s.dualpar_config,
            limit_s=s.limit_s,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    #: Run through ``run_experiments`` (process pool + result store).
    pooled: bool
    #: sim.error_vs_paper = |throughput(num) / throughput(den) / paper - 1|.
    ratio: tuple[str, str]
    paper_ratio: float
    #: The workload's entry in reference.json: ``digest``, per-cell
    #: ``moved`` bytes and the simulated-time ``stats``; None at reduced
    #: scale.
    reference: Optional[dict] = None


def _cell(label: str, strategy: str, jobs: list[JobSpec],
          quota_kb: Optional[int] = None) -> Cell:
    config = None if quota_kb is None else DualParConfig(quota_bytes=quota_kb * 1024)
    spec = ExperimentSpec(jobs, cluster_spec=paper_spec(), dualpar_config=config,
                          label=label)
    return Cell(label, strategy, spec)


#: (cell label and strategy group, run_experiment strategy) of the
#: three-strategy workloads.
_STRATEGIES = (("vanilla", "vanilla"), ("collective", "collective"),
               ("dualpar", "dualpar-forced"))


def fig3_read(small: bool = False) -> Workload:
    """Fig 3: one mpi-io-test read job (64 ranks over 64 MB)."""
    nprocs, mb = (8, 8) if small else (64, 64)

    def jobs(strategy: str) -> list[JobSpec]:
        work = MpiIoTest(file_size=mb * 1024 * 1024, op="R")
        return [JobSpec("mpi-io-test", nprocs, work, strategy=strategy)]

    cells = tuple(_cell(group, group, jobs(s)) for group, s in _STRATEGIES)
    return Workload("fig3-read", cells, pooled=False, ratio=("dualpar", "vanilla"),
                    paper_ratio=263 / 115)


def table2_write(small: bool = False) -> Workload:
    """Table II: two concurrent mpi-io-test write jobs (32 ranks, 96 MB each)."""
    nprocs, mb = (8, 8) if small else (32, 96)

    def jobs(strategy: str) -> list[JobSpec]:
        return [
            JobSpec(
                f"mpi-io-test-{i}",
                nprocs,
                MpiIoTest(file_name=f"miot{i}.dat", file_size=mb * 1024 * 1024,
                          request_bytes=16 * 1024, op="W", barrier_every=4),
                strategy=strategy,
            )
            for i in range(2)
        ]

    cells = tuple(_cell(group, group, jobs(s)) for group, s in _STRATEGIES)
    return Workload("table2-write", cells, pooled=False, ratio=("dualpar", "vanilla"),
                    paper_ratio=127 / 54)


def fig8_sweep(small: bool = False) -> Workload:
    """Fig 8: BTIO's tiny non-contiguous writes, vanilla and DualPar at
    0, 64 and 256 KB per-process cache quota."""
    nprocs, mb = (16, 1) if small else (64, 8)

    def jobs(strategy: str) -> list[JobSpec]:
        work = Btio(total_bytes=mb * 1024 * 1024, n_steps=2, cell_scale=16384, op="W",
                    compute_per_step=0.002, segments_per_call=64)
        return [JobSpec("btio", nprocs, work, strategy=strategy)]

    cells = (_cell("vanilla", "vanilla", jobs("vanilla")),) + tuple(
        _cell(f"dualpar@{kb}KB", "dualpar", jobs("dualpar-forced"), quota_kb=kb)
        for kb in (0, 64, 256)
    )
    return Workload("fig8-sweep", cells, pooled=True, ratio=("dualpar@64KB", "dualpar@0KB"),
                    paper_ratio=43.0)


WORKLOADS: dict[str, Callable[..., Workload]] = {
    "fig3-read": fig3_read,
    "table2-write": table2_write,
    "fig8-sweep": fig8_sweep,
}


def build(name: str) -> Workload:
    """The full-scale workload ``name``, with its reference outputs."""
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return dataclasses.replace(WORKLOADS[name](), reference=references.get(name))


# -- checks and digest ----------------------------------------------------


def moved(res: Any) -> list[int]:
    """[bytes the pfs clients read, bytes they wrote, bytes the data
    servers served] in a full ``ExperimentResult``."""
    clients = res.cluster.clients
    return [sum(c.bytes_read for c in clients), sum(c.bytes_written for c in clients),
            res.cluster.total_bytes_served()]


def served(res: Any) -> int:
    if isinstance(res, SlimExperimentResult):
        return res.total_bytes_served
    return res.cluster.total_bytes_served()


def check(workload: Workload, cell: Cell, res: Any) -> Optional[str]:
    """Why ``res`` is not a correct result of ``cell``, or None.

    Besides the jobs' own byte counts, the bytes the pfs layer carried
    must cover them: the clients read at least every declared byte read
    (caches start cold) and wrote at least every declared byte written
    (DualPar's last rank flushes the cache), less the reference's
    ``lost_writes`` for the cell, and the servers served exactly what
    the clients sent.  A result must also move what the reference says
    the cell moves, so a cell with a recorded loss loses exactly that
    much.  A pooled result carries only the servers' total, so it must
    match the reference, whose client counts then stand for it.
    """
    got = [(j.name, j.bytes_read, j.bytes_written) for j in res.jobs]
    if got != cell.declared():
        return f"bytes moved {got} differ from declared {cell.declared()}"
    ref = workload.reference["moved"].get(cell.label) if workload.reference else None
    if isinstance(res, SlimExperimentResult):
        if ref is None:
            return "a pooled result has no reference to check its pfs bytes against"
        if res.total_bytes_served != ref[2]:
            return f"servers served {res.total_bytes_served} B, reference {ref[2]} B"
        layer = ref
    else:
        layer = moved(res)
        if ref is not None and layer != ref:
            return f"pfs moved {layer} B (read, written, served), reference {ref}"
    read, written, total = layer
    lost = workload.reference.get("lost_writes", {}).get(cell.label, 0) if ref else 0
    want_read = sum(r for _, r, _ in cell.declared())
    want_written = sum(w for _, _, w in cell.declared())
    if read < want_read or written + lost < want_written or total != read + written:
        return (f"pfs clients read {read} B and wrote {written} B, servers served "
                f"{total} B; the jobs declared {want_read} B read, {want_written} B written")
    return None


def record(cell: Cell, res: Any) -> list:
    """The simulated result of one cell, as the digest sees it."""
    return [
        cell.label,
        [
            [j.name, repr(j.start_s), repr(j.end_s), j.bytes_read, j.bytes_written,
             repr(j.io_time_s)]
            for j in res.jobs
        ],
        repr(res.makespan_s),
        served(res),
    ]


def digest(records: list) -> str:
    """sha256 over every cell's record, in the workload's cell order."""
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def error_vs_paper(workload: Workload, throughput: dict[str, float]) -> Optional[float]:
    """None unless both cells of the ratio produced a result."""
    num, den = workload.ratio
    if num not in throughput or den not in throughput:
        return None
    return abs(throughput[num] / throughput[den] / workload.paper_ratio - 1.0)


def reference_of(workload: Workload) -> dict:
    """The workload's simulated outputs, as reference.json records them."""
    records, layer, lost, stats = [], {}, {}, []
    for cell in workload.cells:
        res = cell.run()
        records.append(record(cell, res))
        layer[cell.label] = moved(res)
        short = sum(w for _, _, w in cell.declared()) - layer[cell.label][1]
        if short > 0:
            lost[cell.label] = short
        stats.append(sim_stats(res))
    return {"digest": digest(records), "moved": layer, "lost_writes": lost,
            "stats": finish_stats(stats)}


# -- simulated-time statistics ----------------------------------------------


def sim_stats(res: Any) -> tuple:
    """Raw simulated-time totals of one full ``ExperimentResult``."""
    servers = res.cluster.data_servers
    drives = [ds.device.stats for ds in servers]
    blk = [ds.block_layer.stats for ds in servers]
    cache = res.runtime.global_cache
    return (
        sum(d.total_busy_s for d in drives),
        sum(d.total_seek_sectors for d in drives),
        sum(d.n_requests for d in drives),
        sum(sum(b.depth_samples) for b in blk),
        sum(len(b.depth_samples) for b in blk),
        sum(b.mean_unit_sectors * b.n_units_served for b in blk),
        sum(b.n_units_served for b in blk),
        sum(sum(b.service_start_delays) for b in blk),
        sum(len(b.service_start_delays) for b in blk),
        cache.n_hits,
        cache.n_gets,
        res.cluster.total_bytes_served(),
        sum(j.total_bytes for j in res.jobs),
        sum(j.io_time_s for j in res.jobs),
        sum(j.compute_time_s for j in res.jobs),
    )


def finish_stats(per_cell: list[tuple]) -> dict[str, float]:
    """Per-layer simulated-time metrics from ``sim_stats`` of every cell,
    summed in cell order so the figures repeat exactly."""
    t = dict.fromkeys(_STAT_KEYS, 0)
    for stats in per_cell:
        for key, value in zip(_STAT_KEYS, stats):
            t[key] += value
    t["busy_io_s"] = t["io_s"] + t["compute_s"]

    def ratio(a: str, b: str) -> float:
        return t[a] / t[b] if t[b] else 0.0

    return {
        "disk.busy_s": t["busy_s"],
        "disk.mean_seek_sectors": ratio("seek_sectors", "seek_requests"),
        "iosched.mean_queue_depth": ratio("depth_sum", "depth_n"),
        "iosched.mean_unit_sectors": ratio("unit_sectors", "units"),
        "iosched.start_delay_s": ratio("delay_sum", "delay_n"),
        "cache.hit_ratio": ratio("cache_hits", "cache_gets"),
        "pfs.served_per_requested": ratio("served_bytes", "job_bytes"),
        "mpi.io_ratio": ratio("io_s", "busy_io_s"),
    }
