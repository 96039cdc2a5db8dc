"""Unit tests for two-phase collective I/O internals."""

from repro.cluster import ClusterSpec, build_cluster
from repro.disk.drive import DiskParams
from repro.mpi.ops import Segment
from repro.mpi.runtime import MpiRuntime
from repro.mpiio.collective import CollectiveEngine, _clip
from repro.runner import JobSpec, run_experiment
from repro.workloads import MpiIoTest, SyntheticPattern


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=2,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


# ----------------------------------------------------------------- clip


def test_clip_inside():
    assert _clip(Segment(10, 20), 0, 100) == Segment(10, 20)


def test_clip_partial_overlap():
    assert _clip(Segment(10, 20), 15, 100) == Segment(15, 15)
    assert _clip(Segment(10, 20), 0, 15) == Segment(10, 5)


def test_clip_outside_returns_none():
    assert _clip(Segment(10, 20), 50, 100) is None
    assert _clip(Segment(50, 20), 0, 40) is None


def test_clip_zero_width_domain():
    assert _clip(Segment(10, 20), 15, 15) is None


# ----------------------------------------------------------- aggregators


def make_engine(nprocs=4, **kw):
    cluster = build_cluster(small_spec())
    rt = MpiRuntime(cluster)
    from repro.mpi.runtime import MpiJob

    job = MpiJob(rt, "c", nprocs, SyntheticPattern(), lambda r, j: CollectiveEngine(r, j, **kw))
    return job.engine


def test_default_aggregator_count_is_node_count():
    eng = make_engine(nprocs=4)
    assert eng.n_aggregators == 2  # min(2 nodes, 4 procs)


def test_aggregator_count_capped_by_procs():
    eng = make_engine(nprocs=1)
    assert eng.n_aggregators == 1


def test_aggregator_override():
    eng = make_engine(nprocs=4, n_aggregators=3)
    assert eng.n_aggregators == 3


def test_meta_cost_grows_with_procs():
    small = make_engine(nprocs=2)._meta_cost_s()
    big = make_engine(nprocs=64)._meta_cost_s()
    assert big > small


# ------------------------------------------------------------ behaviour


def test_collective_reads_exact_bytes_when_no_holes():
    """mpi-io-test tiles the file: aggregators read no extra data."""
    res = run_experiment(
        [JobSpec("c", 4, MpiIoTest(file_size=2 * 1024 * 1024), strategy="collective")],
        cluster_spec=small_spec(),
    )
    assert res.cluster.total_bytes_served() == 2 * 1024 * 1024


def test_collective_write_rmw_on_holey_pattern():
    """A pattern leaving holes inside the file domain forces read-modify-
    write: servers serve more bytes than the program wrote."""
    from repro.workloads import Hpio

    # 1 KB regions spaced 1 KB apart: 50% of every aggregator domain is
    # holes, bridged by the 64 KB hole threshold -> RMW.
    w = Hpio(region_count=256, region_bytes=1024, region_spacing=1024,
             op="W", collective=True)
    res = run_experiment(
        [JobSpec("c", 4, w, strategy="collective")],
        cluster_spec=small_spec(),
    )
    written = res.jobs[0].bytes_written
    assert written == 256 * 1024
    assert res.cluster.total_bytes_served() > written


def test_collective_rounds_respect_cb_buffer():
    """A domain bigger than cb_buffer is processed in multiple rounds;
    the data still arrives exactly once."""
    res = run_experiment(
        [JobSpec("c", 4, MpiIoTest(file_size=4 * 1024 * 1024), strategy="collective",
                 engine_kwargs=dict(cb_buffer_bytes=256 * 1024))],
        cluster_spec=small_spec(),
    )
    assert res.jobs[0].bytes_read == 4 * 1024 * 1024


def test_non_collective_ops_fall_through():
    res = run_experiment(
        [JobSpec("c", 4, SyntheticPattern(file_size=1024 * 1024),
                 strategy="collective",
                 engine_kwargs=dict(treat_all_collective=False))],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    assert eng.n_collective_calls == 0
    assert res.jobs[0].bytes_read == 1024 * 1024


def test_collective_exchange_bytes_counted():
    res = run_experiment(
        [JobSpec("c", 4, MpiIoTest(file_size=1024 * 1024), strategy="collective")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    # Every byte read was redistributed from an aggregator to its rank.
    assert eng.exchange_bytes == 1024 * 1024
