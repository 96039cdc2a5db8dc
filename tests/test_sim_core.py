"""Unit tests for the discrete-event simulation kernel."""

import sys

import pytest

from repro.sim import (
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    all_of,
    any_of,
)
from repro.sim import core as sim_core


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(3.5)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [3.5]
    assert sim.now == 3.5


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="payload")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_truncates():
    sim = Simulator()
    hits = []

    def proc():
        while True:
            yield sim.timeout(1.0)
            hits.append(sim.now)

    sim.process(proc())
    sim.run(until=5.5)
    assert hits == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 5.5


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(3, "c"))
    sim.process(proc(1, "a"))
    sim.process(proc(2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    """Ties in time resolve in creation order (determinism)."""
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.process(proc(tag))
    sim.run()
    assert order == list("abcde")


def test_process_return_value():
    sim = Simulator()

    def inner():
        yield sim.timeout(2)
        return 42

    def outer(results):
        val = yield sim.process(inner())
        results.append(val)

    results = []
    sim.process(outer(results))
    sim.run()
    assert results == [42]


def test_waiting_on_finished_process():
    """Joining an already-completed process returns immediately."""
    sim = Simulator()

    def quick():
        return 7
        yield  # pragma: no cover

    def waiter(results, proc):
        yield sim.timeout(5)
        val = yield proc
        results.append((sim.now, val))

    results = []
    p = sim.process(quick())
    sim.process(waiter(results, p))
    sim.run()
    assert results == [(5, 7)]


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    def trigger():
        yield sim.timeout(4)
        ev.succeed("go")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == ["go"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("kaput")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run()


@pytest.mark.skipif(sim_core._CQ is None, reason="C accelerator unavailable")
def test_accelerated_pump_keeps_generator_exception_across_type_cache_miss():
    """The C dispatch pump resets ``sim._active`` after the generator
    step; a type-attribute-cache miss there must not clobber the pending
    StopIteration (return) or exception (raise)."""
    sim = Simulator()

    def returns():
        yield sim.timeout(1)
        sys._clear_type_cache()
        return 42

    proc = sim.process(returns())
    sim.run()
    assert proc.value == 42

    sim = Simulator()

    def raises():
        yield sim.timeout(1)
        sys._clear_type_cache()
        raise ValueError("boom")

    sim.process(raises())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_yield_non_event_rejected():
    sim = Simulator()

    def bad():
        yield 17

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    def attacker(p):
        yield sim.timeout(3)
        p.interrupt("deadline")

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert log == [(3, "deadline")]


def test_interrupt_then_rewait():
    """After an interrupt the victim can wait on a fresh event."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt:
            yield sim.timeout(2)
            log.append(sim.now)

    def attacker(p):
        yield sim.timeout(3)
        p.interrupt()

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert log == [5]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    def attacker(p):
        yield sim.timeout(5)
        with pytest.raises(SimulationError):
            p.interrupt()

    p = sim.process(quick())
    sim.process(attacker(p))
    sim.run()


def test_self_interrupt_rejected():
    sim = Simulator()

    def selfish():
        me = sim.active_process
        with pytest.raises(SimulationError):
            me.interrupt()
        yield sim.timeout(1)

    sim.process(selfish())
    sim.run()


def test_all_of_waits_for_all():
    sim = Simulator()
    got = []

    def waiter():
        evs = [sim.timeout(t, value=t) for t in (5, 1, 3)]
        res = yield all_of(sim, evs)
        got.append((sim.now, sorted(res.values())))

    sim.process(waiter())
    sim.run()
    assert got == [(5, [1, 3, 5])]


def test_any_of_fires_on_first():
    sim = Simulator()
    got = []

    def waiter():
        evs = [sim.timeout(t, value=t) for t in (5, 1, 3)]
        res = yield any_of(sim, evs)
        got.append((sim.now, list(res.values())))

    sim.process(waiter())
    sim.run()
    assert got == [(1, [1])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    got = []

    def waiter():
        res = yield all_of(sim, [])
        got.append(res)

    sim.process(waiter())
    sim.run()
    assert got == [{}]


def test_any_of_empty_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        any_of(sim, [])


def test_run_until_event():
    sim = Simulator()

    def proc():
        yield sim.timeout(7)
        return "done"

    p = sim.process(proc())
    assert sim.run_until_event(p) == "done"
    assert sim.now == 7


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    ev = sim.event()  # never triggered

    def waiter():
        yield ev

    p = sim.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(p)


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(9)
    assert sim.peek() == 9


def test_step_empty_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_nested_process_trees():
    """A process spawning children and joining them all."""
    sim = Simulator()

    def leaf(d):
        yield sim.timeout(d)
        return d * 10

    def parent(results):
        kids = [sim.process(leaf(d)) for d in (1, 2, 3)]
        res = yield all_of(sim, kids)
        results.append(sorted(res.values()))

    results = []
    sim.process(parent(results))
    sim.run()
    assert results == [[10, 20, 30]]
    assert sim.now == 3
