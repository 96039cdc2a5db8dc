"""Golden bit-identity: small cells must reproduce pinned model results.

``tests/test_determinism.py`` compares runs of the *same* code against
each other; this file pins what the model computes, so a refactor that
perturbs any simulated result fails here.  Each cell (8 ranks, 8 MB)
hashes the ``JobResult`` fields, the makespan, the bytes the data
servers served, every server's request count, the raw blktrace
``(time, lbn, nsectors)`` tuples and, on faulted cells, every server's
``commit_log`` (the exactly-once write ids in commit order).

The cells cover every client-to-server request path: per-piece I/O
(vanilla, and CRM with ``use_list_io=False``), list I/O (collective
aggregators and CRM), and both paths through the fault-aware retry loop
under ``examples/faultplans/crash_recover.json``.  That plan crashes its
server while nothing is in flight to it, so it exercises failover only;
the ``inflight-crash`` plan crashes a server under in-flight writes, so
requests time out and are re-sent with the same write id.

The pinned digests include DualPar's current write-back loss (the CRM
flushes fewer bytes than the ranks wrote; see ``repro.core.crm``).  A
change that fixes that loss changes the ``dualpar-forced`` write digests
on purpose: regenerate this file together with
``perfbench/reference.json`` in that change, by printing ``_digest`` for
each cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import pytest

from repro import JobSpec, MpiIoTest, run_experiment
from repro.cluster import paper_spec
from repro.core.config import DualParConfig
from repro.faults import FaultPlan

CRASH_PLAN = (
    Path(__file__).resolve().parent.parent / "examples" / "faultplans" / "crash_recover.json"
)

#: Crashes ds1 while vanilla writes to it are in flight; a short timeout
#: makes the clients give up on them and re-send.
INFLIGHT_CRASH_PLAN = {
    "seed": 2,
    "events": [{"kind": "server_crash", "at_s": 0.01, "until_s": 0.3, "target": 1}],
    "retry": {"base_timeout_s": 0.05, "max_retries": 20},
}

PLANS = {
    "crash": lambda: FaultPlan.load(CRASH_PLAN),
    "inflight-crash": lambda: FaultPlan.from_dict(INFLIGHT_CRASH_PLAN),
}

#: cell id -> (strategy, op, use_list_io, fault plan name or None,
#: sha256 of the record)
CELLS = {
    "vanilla-R": (
        "vanilla", "R", True, None,
        "62b028eb1c7c55de24f9eeb125baf536ed79e2ce999630684a61e125fe8f5ea9",
    ),
    "vanilla-W": (
        "vanilla", "W", True, None,
        "874dd12e39f7fee45d99018d15052f0e5ef4ec8207d4cf27b68f5595672171aa",
    ),
    "collective-R": (
        "collective", "R", True, None,
        "96692a3fa742304d1be3d88f295ebb0707cb0f2d72b95ff156eaeaa84b51a50e",
    ),
    "collective-W": (
        "collective", "W", True, None,
        "697669c708c7de944099842dbed35f2d0f829c908cdbac783a4d10a9abcb49a6",
    ),
    "dualpar-forced-R": (
        "dualpar-forced", "R", True, None,
        "d9572d06b142e05eaf06248eb08d0f0a12f215c9ba23a40e2fa2de3b5cd2ef0a",
    ),
    "dualpar-forced-W": (
        "dualpar-forced", "W", True, None,
        "8d2d9d408bd0efbbf43c2be5ebe246d4fb8378c14345bd65e4fd1bc825ecaf25",
    ),
    "dualpar-forced-perpiece-R": (
        "dualpar-forced", "R", False, None,
        "ec3604c9032b0a10db77036b1edce7c770480bb69bc0f2d230e3b0eab3d7928e",
    ),
    "dualpar-forced-perpiece-W": (
        "dualpar-forced", "W", False, None,
        "83ec56ec86b4de033e0bf5a75d0ba292e0d67d908467aa9d7bdcc9a7e0e50ee9",
    ),
    "vanilla-W-crash": (
        "vanilla", "W", True, "crash",
        "d7c4574dc177a793f44cb8873647e7069596ce06e70c7c5d728023529d9d5d5f",
    ),
    "collective-W-crash": (
        "collective", "W", True, "crash",
        "2d830e9af90cb7edc15b03625a3c42c0abebaeac9e1422fc9b965f078b8a34b7",
    ),
    "vanilla-W-inflight-crash": (
        "vanilla", "W", True, "inflight-crash",
        "50e78c663e6a3a1d9d6a0d20e5e9ceef8c8c27401b335a18b9d8119e914411a6",
    ),
}


def _run(strategy: str, op: str, use_list_io: bool, plan: Optional[str]):
    return run_experiment(
        [JobSpec("g", 8, MpiIoTest(file_size=8 * 1024 * 1024, op=op), strategy=strategy)],
        cluster_spec=paper_spec(n_compute_nodes=8, trace_disks=True),
        dualpar_config=DualParConfig(use_list_io=use_list_io),
        fault_plan=PLANS[plan]() if plan else None,
    )


def _record(res, faulted: bool) -> dict:
    cluster = res.cluster
    record = {
        "jobs": [asdict(j) for j in res.jobs],
        "makespan_s": res.makespan_s,
        "bytes_served": cluster.total_bytes_served(),
        "n_requests": [ds.n_requests for ds in cluster.data_servers],
        "blktrace": [
            [(r.time, r.lbn, r.nsectors) for r in t.records] if t is not None else None
            for t in cluster.traces
        ],
    }
    if faulted:
        record["commit_logs"] = [ds.commit_log for ds in cluster.data_servers]
    return record


def _digest(record: dict) -> str:
    # json writes floats with repr(), so every bit of every float counts.
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.mark.parametrize("cell", list(CELLS))
def test_cell_matches_golden_digest(cell):
    strategy, op, use_list_io, plan, expected = CELLS[cell]
    res = _run(strategy, op, use_list_io, plan)
    record = _record(res, faulted=plan is not None)
    assert sum(len(t) for t in record["blktrace"] if t), "expected disk traffic"
    if plan is not None:
        assert any(record["commit_logs"]), "expected exactly-once commits"
        for log in record["commit_logs"]:
            assert log is None or len(set(log)) == len(log), "a write committed twice"
    if plan == "inflight-crash":
        clients = res.cluster.clients
        assert sum(c.n_timeouts for c in clients) > 0, "the crash hit no in-flight request"
        assert sum(c.n_retries for c in clients) > 0, "no timed-out request was re-sent"
    assert _digest(record) == expected
