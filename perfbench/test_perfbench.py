"""Tests of the repository benchmark itself, at reduced scale.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import workloads  # noqa: E402
from layertrace import CLASS_ENTRY_POINTS, LayerTracer  # noqa: E402
from repro.runner.parallel import SlimExperimentResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small(make):
    w = make(small=True)
    return dataclasses.replace(w, reference=workloads.reference_of(w))


#: Every workload at reduced scale, with its own reference outputs.
SMALL = {name: _small(make) for name, make in workloads.WORKLOADS.items()}
#: Metrics of the traced run that must repeat exactly from run to run.
EXACT = {
    "disk.busy_s", "disk.mean_seek_sectors", "iosched.mean_queue_depth",
    "iosched.mean_unit_sectors", "iosched.start_delay_s", "cache.hit_ratio",
    "pfs.served_per_requested", "mpi.io_ratio", "runner.store_hits",
    "runner.store_misses",
}


def _printed(tally, metrics) -> dict:
    return json.loads(bench.result_line(tally, metrics))


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs, with different seeds, of every small workload."""
    return {
        name: [_printed(*bench.traced(w, seed, 0.01, 2)) for seed in (1, 2)]
        for name, w in SMALL.items()
    }


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_printed_with_units():
    out = _printed(*bench.end_to_end(SMALL["fig3-read"], 1, 0.01, 1))
    assert out["correct"] and out["attempted"] == 3 and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_per_layer_metrics_printed_with_units(traced_runs):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, runs in traced_runs.items():
        for out in runs:
            assert {k: v["unit"] for k, v in out["metrics"].items()} == want, name


def test_traced_runs_are_correct(traced_runs):
    for name, runs in traced_runs.items():
        for out in runs:
            assert out["correct"], name


def test_reference_names_every_cell():
    for name, make in workloads.WORKLOADS.items():
        w = workloads.build(name)
        assert w.reference is not None, name
        assert set(w.reference["moved"]) == {c.label for c in w.cells}, name


def test_counts_and_simulated_stats_repeat_exactly(traced_runs):
    for name, (a, b) in traced_runs.items():
        for key, value in a["metrics"].items():
            if key.endswith(".calls") or key in EXACT:
                assert value == b["metrics"][key], (name, key)
        assert a["metrics"]["sim.process.calls"]["value"] > 0


def test_error_vs_paper_repeats_exactly():
    w = SMALL["table2-write"]
    a = _printed(*bench.end_to_end(w, 1, 0.01, 1))["metrics"]["sim.error_vs_paper"]
    b = _printed(*bench.end_to_end(w, 7, 0.01, 1))["metrics"]["sim.error_vs_paper"]
    assert a == b


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_digest_equals_untraced(name):
    w = SMALL[name]
    order = list(range(len(w.cells)))
    plain = bench.run_serial(w, order)
    with LayerTracer() as tracer:
        traced = bench.run_serial(w, order[::-1])
    assert None not in plain.records and None not in traced.records
    assert workloads.digest(plain.records) == workloads.digest(traced.records)
    assert tracer.calls["net"] > 0
    assert plain.failed == traced.failed == 0


def test_pooled_digest_equals_serial(tmp_path):
    w = SMALL["fig8-sweep"]
    order = random.Random(3).sample(range(len(w.cells)), len(w.cells))
    pooled = bench.run_pooled(w, order, tmp_path / "store", 2)
    serial = bench.run_serial(w, order)
    assert workloads.digest(pooled.records) == workloads.digest(serial.records)
    assert pooled.failed == serial.failed


def test_tracer_restores_entry_points():
    import importlib

    before = [
        (cls, name, cls.__dict__[name])
        for _, module, cls_name, names in CLASS_ENTRY_POINTS
        for cls in [getattr(importlib.import_module(module), cls_name)]
        for name in names
    ]
    experiment = importlib.import_module("repro.runner.experiment")
    build = experiment.build_cluster
    with LayerTracer():
        assert all(cls.__dict__[name] is not fn for cls, name, fn in before)
        assert experiment.build_cluster is not build
    assert all(cls.__dict__[name] is fn for cls, name, fn in before)
    assert experiment.build_cluster is build


def _past_limit(w, index):
    cells = list(w.cells)
    cell = cells[index]
    cells[index] = dataclasses.replace(cell, spec=dataclasses.replace(cell.spec, limit_s=1e-3))
    return dataclasses.replace(w, cells=tuple(cells))


def test_cell_past_limit_counts_as_failed():
    w = _past_limit(SMALL["fig3-read"], 1)
    p = bench.run_serial(w, [0, 1, 2])
    assert p.failed == 1 and p.records[1] is None and p.records[0] is not None
    tally = bench.Tally(w)
    tally.add(p)
    out = _printed(tally, {"wall_s": p.wall_s})
    assert out == {**out, "correct": False, "attempted": 3, "failed": 1}


def test_pooled_cell_past_limit_counts_as_failed(tmp_path):
    w = _past_limit(SMALL["fig8-sweep"], 2)
    p = bench.run_pooled(w, [0, 1, 2, 3], tmp_path / "store", 2)
    assert p.failed == len(w.cells)


def test_error_vs_paper_left_out_without_a_result():
    w = _past_limit(SMALL["fig3-read"], 2)  # the dualpar cell of the ratio
    tally, metrics = bench.end_to_end(w, 1, 0.01, 1)
    assert not tally.correct and "sim.error_vs_paper" not in metrics


def test_layer_bytes_are_checked():
    w = SMALL["fig3-read"]
    bare = dataclasses.replace(w, reference=None)
    cell = w.cells[0]
    res = cell.run()
    assert workloads.check(w, cell, res) is None
    res.cluster.clients[0].bytes_read += 1  # a byte read twice
    assert "reference" in workloads.check(w, cell, res)
    assert workloads.check(bare, cell, res) is not None  # served != client total
    res.cluster.clients[0].bytes_read -= 2  # a byte the clients never read
    assert "declared" in workloads.check(bare, cell, res)


def test_write_loss_must_match_the_reference():
    w = SMALL["table2-write"]
    cell = w.cells[2]  # dualpar, whose write-back loses bytes (README.md)
    lost = w.reference["lost_writes"].get(cell.label, 0)
    if not lost:
        pytest.skip("the model no longer loses write-back bytes")
    res = cell.run()
    assert workloads.check(w, cell, res) is None
    bare = dataclasses.replace(w, reference=None)
    assert "declared" in workloads.check(bare, cell, res)
    smaller = {**w.reference, "lost_writes": {cell.label: lost - 4096}}
    assert "declared" in workloads.check(dataclasses.replace(w, reference=smaller), cell, res)
    res.cluster.clients[0].bytes_written -= 4096  # a larger loss than recorded
    assert "reference" in workloads.check(w, cell, res)


def test_pooled_result_checked_against_reference():
    w = SMALL["fig3-read"]
    cell = w.cells[0]
    slim = SlimExperimentResult.from_full(cell.run())
    assert workloads.check(w, cell, slim) is None
    slim.total_bytes_served += 4096
    assert "reference" in workloads.check(w, cell, slim)
    bare = dataclasses.replace(w, reference=None)
    assert "no reference" in workloads.check(bare, cell, slim)


def test_digest_must_match_reference():
    w = SMALL["fig3-read"]
    wrong = dataclasses.replace(w, reference={**w.reference, "digest": "0" * 64})
    tally, _ = bench.end_to_end(wrong, 1, 0.01, 1)
    assert tally.failed == 0 and not tally.correct
    assert bench.end_to_end(w, 1, 0.01, 1)[0].correct


def test_times_scaled_to_reference_speed():
    ref = bench.CALIB_REF_S
    # On a host half as fast as the reference every time halves.
    assert bench.at_ref_speed([2.0, 4.0, 6.0], [2 * ref] * 4) == 2.0
    # Each time is scaled by the samples just before and after it.
    assert bench.at_ref_speed([1.0], [ref, 3 * ref]) == 0.5


def test_wide_calibration_stops_its_helpers():
    with bench.wide_calib(2) as sample:
        assert len(multiprocessing.active_children()) == 1
        assert sample() > 0
    assert multiprocessing.active_children() == []


def test_seed_moves_only_order():
    w = SMALL["fig3-read"]
    a, _ = bench.end_to_end(w, 1, 0.01, 1)
    b, _ = bench.end_to_end(w, 2, 0.01, 1)
    assert a.digests == b.digests and len(a.digests) == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "fig3-read", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
