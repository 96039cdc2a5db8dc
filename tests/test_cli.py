"""Tests for the command-line interface."""

import pytest

import repro.cli
from repro.cli import main, make_parser
from repro.guard import GuardConfig
from repro.runner.parallel import experiment_fingerprint
from repro.service import ClusterSubmission, ExperimentSubmission, JobSubmission
from repro.workloads import WORKLOADS, build_workload


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    for name in WORKLOADS:
        assert name in out


def test_list_strategies(capsys):
    assert main(["list-strategies"]) == 0
    out = capsys.readouterr().out
    assert "dualpar" in out and "collective" in out


def test_build_workload_all_names():
    for name in WORKLOADS:
        w = build_workload(name, size_mb=8, op="R", nprocs=8)
        assert w.files()


def test_build_workload_unknown():
    with pytest.raises(ValueError, match="unknown workload"):
        build_workload("warp-drive", 8, "R", 8)


def test_unknown_workload_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workload", "warp-drive"])
    assert exc.value.code == 2
    assert "invalid choice: 'warp-drive'" in capsys.readouterr().err


def test_invalid_cell_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workload", "random", "--nprocs", "0"])
    assert exc.value.code == 2
    assert "nprocs must be positive" in capsys.readouterr().err


CELL_FLAGS = [
    "--workload", "noncontig",
    "--nprocs", "4",
    "--size-mb", "4",
    "--op", "read",
    "--compute-nodes", "2",
    "--data-servers", "3",
    "--elevator", "deadline",
    "--quota-kb", "0",
    "--guard",
]


def _expected_submission(strategy: str) -> ExperimentSubmission:
    return ExperimentSubmission(
        jobs=(JobSubmission("noncontig", "noncontig", nprocs=4, size_mb=4, op="R",
                            strategy=strategy),),
        cluster=ClusterSubmission(compute_nodes=2, data_servers=3, io_scheduler="deadline"),
        quota_kb=0,
        guard=GuardConfig(),
    )


def test_run_cell_is_the_submission_cell(monkeypatch):
    """`repro run` executes exactly the cell the same submission lowers to."""
    ran = []

    def fake_run_spec(spec):
        ran.append(spec)
        raise SystemExit(0)

    monkeypatch.setattr(repro.cli, "run_spec", fake_run_spec)
    with pytest.raises(SystemExit):
        main(["run", *CELL_FLAGS, "--strategy", "prefetch"])
    assert experiment_fingerprint(ran[0]) == _expected_submission("prefetch").fingerprint()


def test_compare_cells_are_the_submission_cells(monkeypatch):
    ran = []

    def fake_run_experiments(specs, **_kw):
        ran.extend(specs)
        raise SystemExit(0)

    monkeypatch.setattr(repro.cli, "run_experiments", fake_run_experiments)
    with pytest.raises(SystemExit):
        main(["compare", *CELL_FLAGS, "--strategies", "vanilla", "dualpar"])
    assert [experiment_fingerprint(s) for s in ran] == [
        _expected_submission(s).fingerprint() for s in ("vanilla", "dualpar")
    ]
    assert [s.label for s in ran] == ["vanilla", "dualpar"]


def test_run_small(capsys):
    rc = main(
        [
            "run",
            "--workload", "random",
            "--nprocs", "4",
            "--size-mb", "4",
            "--strategy", "vanilla",
            "--compute-nodes", "2",
            "--data-servers", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "MB/s" in out and "vanilla" in out


def test_run_dualpar_shows_internals(capsys):
    rc = main(
        [
            "run",
            "--workload", "random",
            "--nprocs", "4",
            "--size-mb", "4",
            "--strategy", "dualpar-forced",
            "--compute-nodes", "2",
            "--data-servers", "3",
            "--quota-kb", "256",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "prefetch cycles" in out


def test_compare(capsys):
    rc = main(
        [
            "compare",
            "--workload", "random",
            "--nprocs", "4",
            "--size-mb", "4",
            "--strategies", "vanilla", "dualpar-forced",
            "--compute-nodes", "2",
            "--data-servers", "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "vanilla" in out and "dualpar-forced" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        make_parser().parse_args([])


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--trace-out", "t.json"],  # compare cells run in workers
        ["run", "--workers", "4"],  # the cluster model is serial-only
        ["report", "--workers", "4"],
        ["compare", "--workers", "4"],
    ],
)
def test_parser_rejects_options_a_command_lacks(argv):
    with pytest.raises(SystemExit):
        make_parser().parse_args(argv)


def test_run_with_elevator_option(capsys):
    rc = main(
        [
            "run",
            "--workload", "random",
            "--nprocs", "4",
            "--size-mb", "4",
            "--strategy", "vanilla",
            "--compute-nodes", "2",
            "--data-servers", "3",
            "--elevator", "deadline",
        ]
    )
    assert rc == 0
