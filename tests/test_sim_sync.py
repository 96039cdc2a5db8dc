"""Unit tests for the SimBarrier sync primitive."""

import pytest

from repro.sim import SimBarrier, SimulationError, Simulator


# ---------------------------------------------------------------- Barrier


def test_barrier_releases_all_when_full():
    sim = Simulator()
    bar = SimBarrier(sim, parties=3)
    log = []

    def party(tag, delay):
        yield sim.timeout(delay)
        yield bar.arrive()
        log.append((tag, sim.now))

    sim.process(party("a", 1))
    sim.process(party("b", 2))
    sim.process(party("c", 5))
    sim.run()
    assert all(t == 5 for _, t in log)
    assert sorted(tag for tag, _ in log) == ["a", "b", "c"]


def test_barrier_reusable_generations():
    sim = Simulator()
    bar = SimBarrier(sim, parties=2)
    log = []

    def party(tag):
        for i in range(3):
            yield sim.timeout(1)
            gen = yield bar.arrive()
            log.append((tag, gen))

    sim.process(party("x"))
    sim.process(party("y"))
    sim.run()
    assert bar.generation == 3
    assert log.count(("x", 1)) == 1 and log.count(("y", 3)) == 1


def test_barrier_single_party_never_blocks():
    sim = Simulator()
    bar = SimBarrier(sim, parties=1)
    log = []

    def solo():
        yield bar.arrive()
        log.append(sim.now)

    sim.process(solo())
    sim.run()
    assert log == [0]


def test_barrier_bad_parties():
    sim = Simulator()
    with pytest.raises(SimulationError):
        SimBarrier(sim, parties=0)


def test_barrier_n_waiting():
    sim = Simulator()
    bar = SimBarrier(sim, parties=3)

    def party():
        yield bar.arrive()

    sim.process(party())
    sim.process(party())
    sim.run()
    assert bar.n_waiting == 2
