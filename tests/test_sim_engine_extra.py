"""Extra kernel edge-case tests (conditions, process state, determinism)."""

import pytest

from repro.sim import (
    Event,
    SimulationError,
    Simulator,
    join,
)


def test_nested_conditions():
    sim = Simulator()
    out = []

    def proc():
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(2.0, value="b")
        c = sim.timeout(9.0, value="c")
        both = join(sim, [a, b], value="a&b")
        got = yield join(sim, [both, c], value="any", need=1)
        out.append((sim.now, got, both.value, c.processed))

    sim.spawn(proc())
    sim.run()
    # (a & b) completes at t=2, long before c.
    assert out == [(2.0, "any", "a&b", False)]


def test_condition_over_already_failed_event_defused():
    sim = Simulator()
    caught = []

    def proc():
        bad = Event(sim)
        bad.fail(RuntimeError("pre-failed"))
        bad.defuse()
        # wait for the failure to be processed
        yield sim.timeout(0.1)
        try:
            yield join(sim, [bad, sim.timeout(1.0)], need=1)
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(proc())
    sim.run()
    assert caught == ["pre-failed"]


def test_process_is_alive_and_target():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)

    proc = sim.spawn(child())
    assert proc.is_alive
    sim.run(until=1.0)
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_event_or_and_require_same_sim():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(SimulationError, match="different simulators"):
        join(sim1, [sim1.timeout(1.0), sim2.timeout(1.0)])
    with pytest.raises(SimulationError, match="different simulators"):
        join(sim2, [sim1.timeout(1.0)], need=1)


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Event(sim).fail("not an exception")


def test_defused_failure_does_not_crash_run():
    sim = Simulator()
    ev = Event(sim)
    ev.fail(RuntimeError("ignored"))
    ev.defuse()
    sim.run()   # must not raise


def test_value_of_failed_event_is_the_exception():
    sim = Simulator()
    ev = Event(sim)
    exc = RuntimeError("boom")
    ev.fail(exc)
    ev.defuse()
    sim.run()
    assert ev.value is exc
    assert not ev.ok


def test_event_count_monotone_across_runs():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run(until=2.0)
    first = sim.event_count
    sim.timeout(1.0)
    sim.run()
    assert sim.event_count > first


def test_process_return_inside_try_finally():
    sim = Simulator()
    cleaned = []

    def proc():
        try:
            yield sim.timeout(1.0)
            return "done"
        finally:
            cleaned.append(sim.now)

    value = sim.run(until=sim.spawn(proc()))
    assert value == "done"
    assert cleaned == [1.0]
