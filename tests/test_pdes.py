"""Conservative parallel DES stays bit-identical to the serial run.

The engine's contract (see ``repro.sim.pdes.engine``) is that one model
produces the same results in every execution mode -- serial shared-sim
(``workers=0``), inline windowed (``workers=1``), and forked multiprocess
(``workers>=2``) -- and for every worker count.  Evidence layers:

1. Unit tests over the construction/validation surface (LPs, channels,
   lookahead, handlers) and the ``Simulator.run_below`` kernel primitive
   the windowed backends are built on.
2. A scripted multi-LP interpreter (collision-heavy timestamps,
   same-time cross-sends) whose per-LP receive logs must match across
   modes -- the ``test_equeue`` lockstep pattern lifted to LPs.
3. A Hypothesis property: on arbitrary positive-lookahead graphs with
   seeded message workloads the protocol terminates (no deadlock,
   clocks advance) and windowed mode reproduces serial results.
4. The sharded PFS cell: result digests bit-identical across worker
   counts, under the ownership checker, and under observation.
5. The wiring: ``Simulator(workers=)``/``REPRO_SIM_WORKERS``,
   ``run_experiment`` fallback, bench-cache fingerprint keying, the
   ``repro pdes`` CLI, and the ``check_pdes`` regression gate.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.pdes import (
    CellParams,
    PdesEngine,
    PdesError,
    run_sharded_cell,
)

#: A small but non-trivial cell: requests stripe over both servers and
#: both client nodes barrier against each other through the meta LP.
SMALL_CELL = dict(
    n_servers=2,
    n_client_nodes=2,
    n_ranks=4,
    file_size=1024 * 1024,
    request_bytes=64 * 1024,
)


# -- construction & validation ------------------------------------------


def test_engine_rejects_bad_workers():
    with pytest.raises(PdesError):
        PdesEngine(workers=-1)
    with pytest.raises(PdesError):
        PdesEngine(workers=1.5)  # type: ignore[arg-type]


def test_duplicate_lp_name_rejected():
    eng = PdesEngine()
    eng.add_lp("a")
    with pytest.raises(PdesError, match="duplicate"):
        eng.add_lp("a")


def test_channel_validation():
    eng = PdesEngine()
    a, b = eng.add_lp("a"), eng.add_lp("b")
    with pytest.raises(PdesError, match="unknown"):
        eng.connect(0, 7, 1.0)
    with pytest.raises(PdesError, match="distinct"):
        eng.connect(a, a, 1.0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(PdesError, match="lookahead"):
            eng.connect(a, b, bad)
    # Repeat declarations keep the minimum lookahead.
    eng.connect(a, b, 2.0)
    ch = eng.connect(a, b, 0.5)
    assert ch.lookahead == 0.5
    assert eng.connect(a, b, 1.0).lookahead == 0.5


def test_send_requires_channel_and_handler():
    eng = PdesEngine()
    a, b = eng.add_lp("a"), eng.add_lp("b")
    with pytest.raises(PdesError, match="no channel"):
        a.send(b, "ping")
    eng.connect(a, b, 1.0)
    with pytest.raises(PdesError, match="extra_delay"):
        a.send(b, "ping", extra_delay=-0.5)
    # Serial mode injects eagerly, so a missing handler fails at send.
    with pytest.raises(PdesError, match="no handler"):
        a.send(b, "ping")
    b.on("ping", lambda m: None)
    with pytest.raises(PdesError, match="already handles"):
        b.on("ping", lambda m: None)


def test_run_preconditions():
    eng = PdesEngine()
    with pytest.raises(PdesError, match="no logical processes"):
        eng.run()
    eng2 = PdesEngine()
    eng2.add_lp("a")
    eng2.run()
    with pytest.raises(PdesError, match="once"):
        eng2.run()


# -- Simulator.run_below ------------------------------------------------


def test_run_below_dispatches_strictly_below_limit():
    sim = Simulator()
    fired = []
    for t in (0.0, 1.0, 2.0, 2.0, 3.0):

        def body(delay=t):
            yield sim.timeout(delay)
            fired.append(delay)

        sim.process(body())
    n = sim.run_below(2.0)
    assert fired == [0.0, 1.0]
    assert n >= 2  # process starts count as dispatches too
    rest = sim.run_below(float("inf"))
    assert fired == [0.0, 1.0, 2.0, 2.0, 3.0]
    assert rest >= 3
    assert sim.now == 3.0
    # Idempotent on an empty queue.
    assert sim.run_below(float("inf")) == 0


# -- scripted lockstep interpreter across modes --------------------------

#: Collision-heavy send script: (sender, receiver, send_time, extra_delay).
#: Lookahead is 0.25 everywhere, so several messages land at the same
#: destination timestamp from different senders -- the tie-break surface.
SCRIPT = [
    ("a", "b", 0.0, 0.0),
    ("a", "b", 0.0, 0.0),  # same (t, src): seq must order them
    ("c", "b", 0.0, 0.0),  # same t, larger src id: runs after a's pair
    ("b", "c", 0.0, 0.75),
    ("a", "c", 0.5, 0.5),  # lands with b->c at t=1.0
    ("c", "a", 1.0, 0.0),
    ("b", "a", 0.25, 1.0),  # also lands at t=1.5... after c (src order: b<c? b=1,c=2)
    ("a", "b", 2.0, 0.0),
]


def _build_scripted(workers: int):
    """Three LPs running SCRIPT; each LP logs (now, kind, payload)."""
    eng = PdesEngine(workers=workers)
    lps = {name: eng.add_lp(name) for name in ("a", "b", "c")}
    for s in lps.values():
        for d in lps.values():
            if s is not d:
                eng.connect(s, d, 0.25)

    logs: dict[str, list] = {name: [] for name in lps}
    for name, lp in lps.items():

        def receive(m, name=name, lp=lp):
            logs[name].append((lp.sim.now, m.kind, m.payload))

        lp.on("msg", receive)
        lp.result_fn = lambda name=name: logs[name]

    for i, (src, dst, t_send, extra) in enumerate(SCRIPT):

        def driver(src=src, dst=dst, t_send=t_send, extra=extra, i=i):
            lp = lps[src]
            yield lp.sim.timeout(t_send)
            lp.send(lps[dst], "msg", payload=(i,), extra_delay=extra)

        lps[src].sim.process(driver(), name=f"driver{i}")
    return eng


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_scripted_interpreter_lockstep(workers):
    serial = _build_scripted(0)
    serial.run()
    eng = _build_scripted(workers)
    eng.run()
    assert eng.lp_results == serial.lp_results
    assert list(eng.lp_results) == ["a", "b", "c"]  # stable LP order
    assert eng.stats.committed == serial.stats.committed
    assert serial.stats.rounds == 0
    assert eng.stats.rounds > 0


def test_same_time_messages_order_by_src_then_seq():
    eng = _build_scripted(0)
    eng.run()
    b_log = eng.lp_results["b"]
    # At t=0.25 LP b receives a's two sends (seq order) then c's.
    at_025 = [entry for entry in b_log if entry[0] == 0.25]
    assert [p for _, _, (p,) in at_025] == [0, 1, 2]


def test_protocol_stats_placement_invariant():
    one = _build_scripted(1)
    one.run()
    two = _build_scripted(2)
    two.run()
    for fieldname in ("rounds", "null_messages", "payload_messages", "horizon_stalls"):
        assert getattr(one.stats, fieldname) == getattr(two.stats, fieldname), fieldname


def test_until_caps_execution():
    eng = _build_scripted(0)
    eng.run(until=1.0)
    for log in eng.lp_results.values():
        assert all(t < 1.0 for t, _, _ in log)
    eng1 = _build_scripted(1)
    eng1.run(until=1.0)
    assert eng1.lp_results == eng.lp_results


# -- Hypothesis: no deadlock on arbitrary positive-lookahead graphs ------


@st.composite
def lp_graphs(draw):
    """A random LP graph + seeded relay workload, fully data-driven so
    the same drawn value builds the identical model in every mode."""
    n = draw(st.integers(min_value=2, max_value=5))
    all_edges = [(s, d) for s in range(n) for d in range(n) if s != d]
    edges = draw(
        st.lists(st.sampled_from(all_edges), min_size=1, max_size=8, unique=True)
    )
    lookaheads = {
        e: draw(st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
        for e in edges
    }
    # Each LP relays an incoming token along a fixed out-edge (or drops
    # it); initial tokens start on drawn edges with bounded hop budgets.
    out_edge = {}
    for lp_id in range(n):
        outs = [d for s, d in edges if s == lp_id]
        out_edge[lp_id] = draw(st.sampled_from(outs)) if outs else None
    seeds = draw(
        st.lists(
            st.tuples(
                st.sampled_from(edges),
                st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return n, lookaheads, out_edge, seeds


def _build_relay(workers, spec):
    n, lookaheads, out_edge, seeds = spec
    eng = PdesEngine(workers=workers)
    lps = [eng.add_lp(f"lp{i}") for i in range(n)]
    for (s, d), la in lookaheads.items():
        eng.connect(lps[s], lps[d], la)

    logs: dict[str, list] = {lp.name: [] for lp in lps}
    for lp in lps:

        def receive(m, lp=lp):
            logs[lp.name].append((lp.sim.now, m.payload))
            ttl = m.payload[0]
            nxt = out_edge[lp.lp_id]
            if ttl > 0 and nxt is not None:
                lp.send(nxt, "token", payload=(ttl - 1,))

        lp.on("token", receive)
        lp.result_fn = lambda lp=lp: logs[lp.name]

    for i, ((src, dst), delay, ttl) in enumerate(seeds):

        def driver(src=src, dst=dst, delay=delay, ttl=ttl):
            lp = lps[src]
            yield lp.sim.timeout(delay)
            lp.send(dst, "token", payload=(ttl,))

        lps[src].sim.process(driver(), name=f"seed{i}")
    return eng


@settings(max_examples=40, deadline=None)
@given(spec=lp_graphs())
def test_relay_never_deadlocks_and_matches_serial(spec):
    serial = _build_relay(0, spec)
    serial.run()  # a deadlock would raise PdesDeadlock
    windowed = _build_relay(1, spec)
    windowed.run()
    assert windowed.lp_results == serial.lp_results
    assert windowed.stats.committed == serial.stats.committed
    # Conservative execution ran everything: every LP that received a
    # token advanced its clock at least to its last receipt (local
    # driver events may push it further).
    for name, log in windowed.lp_results.items():
        if log:
            assert windowed.stats.per_lp_clock[name] >= log[-1][0]


# -- the sharded PFS cell ------------------------------------------------


@pytest.mark.parametrize("op", ["R", "W"])
def test_cell_digest_matrix(op):
    params = CellParams(op=op, **SMALL_CELL)
    serial = run_sharded_cell(params, workers=0)
    assert serial.stats.mode == "serial"
    assert serial.events > 0 and serial.elapsed_s > 0
    for workers in (1, 2):
        res = run_sharded_cell(params, workers=workers)
        assert res.digest == serial.digest, f"workers={workers} diverged"
        assert res.results == serial.results
        assert res.events == serial.events


def test_cell_digest_covers_model_not_protocol():
    params = CellParams(**SMALL_CELL)
    one = run_sharded_cell(params, workers=1)
    assert one.stats.rounds > 0
    assert one.stats.null_messages > 0
    # Different op -> different model -> different digest.
    other = run_sharded_cell(CellParams(op="W", **SMALL_CELL), workers=0)
    assert other.digest != one.digest


def test_cell_under_ownership_checker(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE_OWNERSHIP", "1")
    params = CellParams(**SMALL_CELL)
    serial = run_sharded_cell(params, workers=0)
    sharded = run_sharded_cell(params, workers=1)
    assert sharded.digest == serial.digest
    # The checker really ran: build the serial engine directly and count.
    from repro.sim.pdes.cell import _build

    eng = PdesEngine(workers=0)
    _build(eng, params)
    eng.run()
    assert eng.sim is not None
    san = eng.sim._sanitizer
    assert san is not None and san.ownership is not None
    assert san.ownership.n_checks > 0


def test_cell_observed_run_is_bit_identical():
    from repro.obs import Observability

    params = CellParams(**SMALL_CELL)
    plain = run_sharded_cell(params, workers=0)
    obs = Observability()
    observed = run_sharded_cell(params, workers=0, observe=obs)
    assert observed.digest == plain.digest
    snap = obs.snapshot(observed.stats.end_time)
    assert snap["counters"]["pdes.commits"] == observed.stats.committed
    assert snap["counters"]["pdes.payload_messages"] > 0
    # Per-LP delivery spans landed on the tracer.
    names = {rec.name for rec in obs.tracer.spans}
    assert "pdes.deliver" in names


# -- wiring: CLI, gate ---------------------------------------------------


def test_cli_pdes_verify_json(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.delenv("REPRO_SIM_WORKERS", raising=False)
    digest_file = tmp_path / "digest.txt"
    rc = main(
        [
            "pdes",
            "--verify",
            "--json",
            "--workers",
            "2",
            "--servers",
            "2",
            "--client-nodes",
            "2",
            "--ranks",
            "4",
            "--size-mb",
            "1",
            "--digest-out",
            str(digest_file),
        ]
    )
    assert rc == 0
    legs = json.loads(capsys.readouterr().out)
    assert [leg["label"] for leg in legs] == ["serial", "workers=2"]
    assert legs[0]["digest"] == legs[1]["digest"]
    assert legs[1]["stats"]["mode"] == "sharded"
    assert digest_file.read_text().strip() == legs[0]["digest"]


@pytest.mark.parametrize("value", ["zeppelin", "2.5", "-1"])
def test_cli_pdes_rejects_bad_worker_env(value, capsys, monkeypatch):
    """A mistyped REPRO_SIM_WORKERS must fail, not silently run one worker."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_SIM_WORKERS", value)
    assert main(["pdes", "--verify", "--size-mb", "1"]) != 0
    captured = capsys.readouterr()
    assert "verified" not in captured.out
    assert captured.err.strip()


def test_check_pdes_gate(tmp_path):
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))
    try:
        import check_pdes
    finally:
        sys.path.pop(0)

    baseline = {
        "serial": {"events_per_sec": 100_000.0},
        "workers": {"2": {"speedup": 1.0}, "8": {"speedup": 2.0}},
        "tolerance": 0.25,
    }
    good = {
        "serial": {"events_per_sec": 90_000.0},
        "workers": {"2": {"speedup": 0.9}, "8": {"speedup": 1.8}},
    }
    ok, report = check_pdes.check(good, baseline, 0.25)
    assert ok and all(c["ok"] for c in report["checks"])

    # >25% speedup drop on one leg fails the whole gate.
    bad = {
        "serial": {"events_per_sec": 90_000.0},
        "workers": {"2": {"speedup": 0.9}, "8": {"speedup": 1.4}},
    }
    ok, report = check_pdes.check(bad, baseline, 0.25)
    assert not ok
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    assert failed == ["speedup_workers_8"]

    # A missing worker leg is a failure, not a silent skip.
    ok, _ = check_pdes.check({"serial": {"events_per_sec": 90_000.0}}, baseline, 0.25)
    assert not ok

    # End-to-end through main(): --from a measured file + custom baseline.
    bpath = tmp_path / "baseline.json"
    bpath.write_text(json.dumps(baseline))
    for payload, want in ((good, 0), (bad, 1)):
        mpath = tmp_path / "measured.json"
        mpath.write_text(json.dumps(payload))
        rc = check_pdes.main(["--baseline", str(bpath), "--from", str(mpath)])
        assert rc == want
