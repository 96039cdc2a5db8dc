"""Event-queue disciplines stay bit-identical.

The kernel's ordering contract is ``(t, priority, arrival)``: FIFO within
one ``(t, priority)`` band, URGENT (0) before NORMAL (1) at equal times.
The binary heap realises that contract trivially; the calendar queue (and
its C twin) must reproduce it *exactly* -- including under cancels
(``requeue_front`` with ``None`` holes), re-arms (pushes made while a
cohort drains), preemption (an URGENT push landing at the active band's
timestamp) and lazy resizes.

Two layers of evidence:

1. A Hypothesis interpreter drives every available discipline through the
   same randomized op script (pushes, partial dispatch, early stops,
   same-time urgent pushes) and compares the full dispatch streams.
2. End-to-end: the same seeded simulation -- including interrupt-driven
   cancel/re-arm traffic -- produces identical logs under
   ``queue="heap"`` and ``queue="calendar"``, sanitized or not, and a
   full experiment is bit-identical across ``REPRO_EVENT_QUEUE`` legs.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
from dataclasses import asdict
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JobSpec, MpiIoTest, run_experiment
from repro.cluster import paper_spec
from repro.sim import CalendarQueue, HeapQueue, Interrupt, SimulationError, Simulator
from repro.sim import core as sim_core

NORMAL = sim_core.NORMAL
URGENT = sim_core.URGENT
REPO = pathlib.Path(__file__).resolve().parent.parent

# Collision-heavy time grid: duplicate timestamps, sub-width fractions,
# values far beyond the initial wheel horizon, and past-1e300 entries
# that must live in the overflow heap forever.
TIMES = [0.0, 0.25, 0.25, 0.5, 1.0, 1.0, 1.5, 3.0, 7.5, 16.0, 100.0, 1e4, 5e299, 2e300]
#: Relative delays used by mid-dispatch pushes (0.0 = same-time re-arm).
DELTAS = [0.0, 0.0, 0.25, 1.0, 64.0, 1e4]


def _factories():
    fac = [
        ("heap", HeapQueue),
        ("calendar", CalendarQueue),
        # Tiny wheel: forces jump/migrate/resize churn on the same script.
        ("calendar-4x0.25", lambda: CalendarQueue(4, 0.25)),
    ]
    if sim_core._CQ is not None:
        fac.append(("calq-c", sim_core._CQ.CalQ))
    return fac


def _run_script(make_queue, initial, reactions):
    """Interpret one op script against a fresh queue; return the dispatch log.

    ``initial``: list of ``(t, prio)`` pushes. ``reactions`` maps the
    ordinal of a dispatched event to a list of ops executed right after
    it: ``("push", dt, prio)`` re-arms at ``t + dt``; ``("stop",)``
    abandons the cohort via ``requeue_front`` (early driver exit).
    """
    q = make_queue()
    token = 0
    log = []
    for t, p in initial:
        q.push(t, p, token)
        token += 1
    log.append(("seeded", len(q), q.peek()))
    while True:
        cohort = q.pop_cohort()
        if cohort is None:
            break
        t, prio, events = cohort
        i = 0
        stopped = False
        while i < len(events):
            ev = events[i]
            events[i] = None  # the driver contract: null before dispatch
            i += 1
            if ev is None:
                continue
            log.append((t, prio, ev))
            for op in reactions.get(len(log), ()):
                if op[0] == "push":
                    q.push(t + op[1], op[2], token)
                    token += 1
                else:  # "stop"
                    stopped = True
            if stopped:
                q.requeue_front(t, prio, events)
                break
    log.append(("drained", len(q), q.peek()))
    return log


op_strategy = st.one_of(
    st.tuples(
        st.just("push"),
        st.sampled_from(DELTAS),
        st.sampled_from([URGENT, NORMAL, NORMAL]),
    ),
    st.just(("stop",)),
)
script_strategy = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(TIMES), st.sampled_from([URGENT, NORMAL, NORMAL])),
        min_size=1,
        max_size=40,
    ),
    st.dictionaries(st.integers(min_value=1, max_value=60), st.lists(op_strategy, max_size=3), max_size=12),
)


@settings(max_examples=80, deadline=None)
@given(script=script_strategy)
def test_disciplines_identical_over_random_schedules(script):
    initial, reactions = script
    factories = _factories()
    name0, make0 = factories[0]
    reference = _run_script(make0, initial, reactions)
    # Every pushed token (assigned 0, 1, 2, ... in push order) must be
    # dispatched exactly once -- nothing lost, nothing duplicated.
    dispatched = [e[2] for e in reference if isinstance(e[2], int)]
    assert sorted(dispatched) == list(range(len(dispatched)))
    for name, make in factories[1:]:
        assert _run_script(make, initial, reactions) == reference, f"{name} diverged from {name0}"


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(
        st.lists(st.sampled_from([0.0, 0.001, 0.5, 1.0, 1.0, 2.5, 64.0, 1000.0]), min_size=1, max_size=5),
        min_size=1,
        max_size=6,
    )
)
def test_simulation_identical_across_queues(specs):
    """Same coroutine workload -> same log, every queue, sanitized or not."""

    def run(**kw):
        sim = Simulator(**kw)
        log = []

        def worker(i, delays):
            for j, d in enumerate(delays):
                yield sim.timeout(d)
                log.append((sim.now, i, j))

        for i, delays in enumerate(specs):
            sim.process(worker(i, delays))
        sim.run()
        return log

    reference = run(queue="heap")
    assert run(queue="calendar") == reference
    assert run(queue=CalendarQueue(4, 0.25)) == reference
    assert run(queue="calendar", sanitize=True) == reference
    if sim_core._CQ is not None:
        assert run(queue=sim_core._CQ.CalQ()) == reference


def test_interrupt_cancel_rearm_identical_across_queues():
    """Interrupts cancel a pending timeout and the victim re-arms: the
    cancel/re-arm traffic must not perturb ordering on any discipline."""

    def run(queue):
        sim = Simulator(queue=queue)
        log = []

        def victim(i):
            d = 10.0 + i
            while True:
                try:
                    yield sim.timeout(d)
                    log.append((sim.now, i, "done"))
                    return
                except Interrupt as it:
                    log.append((sim.now, i, "int", it.cause))
                    d = d / 2  # re-arm with a fresh, shorter timeout

        def harasser(targets):
            for k in range(3):
                yield sim.timeout(1.0 + k)
                for p in targets:
                    if p.is_alive:
                        p.interrupt(cause=k)

        procs = [sim.process(victim(i)) for i in range(4)]
        sim.process(harasser(procs))
        sim.run()
        return log

    reference = run("heap")
    assert reference, "scenario produced no events"
    assert any(e[2] == "int" for e in reference)
    assert run("calendar") == reference
    if sim_core._CQ is not None:
        assert run(sim_core._CQ.CalQ()) == reference


class _Boom(Exception):
    """Raised by a callback in the middle of a cohort."""


def _entry_point_workload(sim):
    """A seeded workload mixing Timeout and generic events, joins, an
    interrupt and callbacks that raise mid-cohort.  Returns the shared
    log and marker timeouts, one per grid step, each first in its
    cohort (``run_until_event`` targets that stop mid-cohort)."""
    marks = [sim.timeout(0.25 * k) for k in range(1, 12)]
    rng = Random(20261017)
    grid = [0.0, 0.25, 0.25, 0.5, 0.75, 1.0]
    delays = [[rng.choice(grid) for _ in range(6)] for _ in range(8)]
    log: list = []

    def worker(i):
        for j, d in enumerate(delays[i]):
            try:
                if j == 3 and i % 3 == 0:
                    ev = sim.event()
                    ev.succeed((i, j))
                    yield ev
                else:
                    yield sim.timeout(d)
            except Interrupt as it:
                log.append((sim.now, i, j, "int", it.cause))
            log.append((sim.now, i, j))

    procs = [sim.process(worker(i)) for i in range(8)]

    def joiner():
        for p in procs[:3]:
            yield p
            log.append((sim.now, "joined", procs.index(p)))

    def explode(ev):
        log.append((sim.now, "boom", type(ev).__name__))
        raise _Boom

    def bomber():
        yield sim.timeout(0.5)
        procs[4].interrupt(cause="poke")
        # A raising Timeout with a later one of the same cohort behind it.
        sim.timeout(0.5).callbacks.append(explode)
        yield sim.timeout(0.5)
        log.append((sim.now, "after boom", "Timeout"))
        # The same on the generic event path.
        bang = sim.event()
        bang.callbacks.append(explode)
        bang.succeed()
        yield sim.event().succeed()
        log.append((sim.now, "after boom", "Event"))

    sim.process(joiner())
    sim.process(bomber())
    return log, marks


def _retrying(call):
    """Call ``call`` again after each _Boom until it returns."""
    while True:
        try:
            return call()
        except _Boom:
            continue


def _drive_run(sim, marks):
    _retrying(sim.run)


def _drive_run_until_steps(sim, marks):
    for k in range(1, 20):
        until = 0.25 * k
        _retrying(lambda: sim.run(until=until))
        assert sim.now == until and sim.peek() > until
    _retrying(sim.run)


def _drive_run_below_windows(sim, marks):
    for k in range(1, 20):
        limit = 0.25 * k
        _retrying(lambda: sim.run_below(limit))
        assert sim.now < limit <= sim.peek()
    _retrying(lambda: sim.run_below(float("inf")))


def _drive_run_until_event(sim, marks):
    for ev in marks:
        _retrying(lambda: sim.run_until_event(ev))
        assert ev.processed and sim.now == ev.delay
    _retrying(sim.run)


def _drive_step(sim, marks):
    while sim.peek() < float("inf"):
        try:
            sim.step()
        except _Boom:
            pass


ENTRY_POINTS = {
    "run": _drive_run,
    "run-until-steps": _drive_run_until_steps,
    "run-below-windows": _drive_run_below_windows,
    "run-until-event": _drive_run_until_event,
    "step": _drive_step,
}


def _entry_point_queues():
    queues = {
        "heap": lambda: {"queue": "heap"},
        "calendar-4x0.25": lambda: {"queue": CalendarQueue(4, 0.25)},
        "sanitized": lambda: {"queue": "calendar", "sanitize": True},
    }
    if sim_core._CQ is not None:
        queues["calq-c"] = lambda: {"queue": sim_core._CQ.CalQ()}
    return queues


def _entry_point_log(queue, entry):
    sim = Simulator(**_entry_point_queues()[queue]())
    log, marks = _entry_point_workload(sim)
    ENTRY_POINTS[entry](sim, marks)
    assert len(sim._queue) == 0
    return log


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("queue", sorted(_entry_point_queues()))
def test_entry_points_dispatch_in_the_same_order(queue, entry):
    """run(), run(until=) in steps, run_below() in windows,
    run_until_event() and a step() loop dispatch one seeded workload in
    the same order on every queue -- including the remainder of a cohort
    requeued after a callback raised in its middle."""
    reference = _entry_point_log("heap", "run")
    # Both raises land mid-cohort and the rest of the cohort still runs.
    for kind in ("Timeout", "Event"):
        boom = reference.index((1.0, "boom", kind))
        assert boom < reference.index((1.0, "after boom", kind))
    assert any(e[3:4] == ("int",) for e in reference)
    assert _entry_point_log(queue, entry) == reference


def _experiment_measurements():
    """Job measurements and disk traces of a small figure-style cell."""
    res = run_experiment(
        [JobSpec("m", 8, MpiIoTest(file_size=4 * 1024 * 1024, op="R"))],
        cluster_spec=paper_spec(n_compute_nodes=8, trace_disks=True),
    )
    jobs = [asdict(j) for j in res.jobs]
    traces = [
        [(r.time, r.lbn, r.nsectors) for r in t.records] if t is not None else None
        for t in res.cluster.traces
    ]
    return jobs, traces


#: The accel-off leg: the accelerator is chosen when repro.sim.core is
#: imported, so it must run in an interpreter that starts with
#: REPRO_SIM_ACCEL=0 set.
_ACCEL_OFF_LEG = """
from repro.sim import CalendarQueue, Simulator
from repro.sim import core
from tests.test_equeue import _experiment_measurements

assert core._CQ is None, core._CQ
assert type(Simulator()._queue) is CalendarQueue, type(Simulator()._queue)
print(repr(_experiment_measurements()))
"""


def test_experiment_bit_identical_across_event_queue_env(monkeypatch):
    """The determinism-suite acceptance: a real figure-style experiment is
    bit-identical under ``REPRO_EVENT_QUEUE=heap``, ``=calendar`` and the
    no-compiler default (``REPRO_SIM_ACCEL=0``: pure-Python calendar and
    the Python dispatch loop)."""
    monkeypatch.setenv("REPRO_EVENT_QUEUE", "heap")
    heap = _experiment_measurements()
    monkeypatch.setenv("REPRO_EVENT_QUEUE", "calendar")
    assert _experiment_measurements() == heap

    env = {
        **os.environ,
        "REPRO_SIM_ACCEL": "0",
        "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)]),
    }
    del env["REPRO_EVENT_QUEUE"]
    off = subprocess.run(
        [sys.executable, "-c", _ACCEL_OFF_LEG],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
    )
    assert off.returncode == 0, off.stderr
    assert off.stdout.strip() == repr(heap)


# ---------------------------------------------------------------------------
# selection plumbing and introspection
# ---------------------------------------------------------------------------


def test_queue_selection(monkeypatch):
    monkeypatch.delenv("REPRO_EVENT_QUEUE", raising=False)
    default_q = Simulator()._queue
    if sim_core._CQ is not None:
        assert isinstance(default_q, sim_core._CQ.CalQ)
    else:
        assert isinstance(default_q, CalendarQueue)
    assert isinstance(Simulator(queue="heap")._queue, HeapQueue)
    monkeypatch.setenv("REPRO_EVENT_QUEUE", "heap")
    assert isinstance(Simulator()._queue, HeapQueue)
    inst = CalendarQueue()
    assert Simulator(queue=inst)._queue is inst
    with pytest.raises(SimulationError, match="unknown event queue"):
        Simulator(queue="splay")


def test_info_and_len():
    for name, make in _factories():
        q = make()
        assert len(q) == 0
        assert q.peek() == float("inf")
        for i in range(200):
            q.push(float(i % 7), NORMAL, i)
        info = q.info()
        assert len(q) == 200, name
        total = info["count"] + info.get("overflow", 0) + info.get("past", 0)
        assert total == 200, name
        assert q.peek() == 0.0


def test_calendar_resize_triggers_and_preserves_order():
    q = CalendarQueue(4, 1.0)
    n = 4096
    for i in range(n):
        q.push(float(i) * 100.0, NORMAL, i)  # gap 100 vs width 1: forces rewidth
    out = []
    while True:
        c = q.pop_cohort()
        if c is None:
            break
        out.extend(c[2])
        c[2][:] = [None] * len(c[2])
    assert out == list(range(n))
    assert q.stats_resizes > 0
    assert q.info()["resizes"] == q.stats_resizes
