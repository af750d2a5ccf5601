"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import pytest

from repro.sim import (
    Event,
    SimulationError,
    Simulator,
    join,
)


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(2.5)
        log.append(sim.now)
        yield sim.timeout(1.5)
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [2.5, 4.0]


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.spawn(proc())
    sim.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


@pytest.mark.parametrize("delay", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_timeout_rejected(delay):
    # A NaN key would dispatch out of order (timeouts of 3.0, nan, 1.0
    # and 2.0 once fired at 1.0, 2.0, 2.0 and 3.0), and an infinite one
    # would leave the clock at infinity after run().
    sim = Simulator()
    fired = []
    for d in (3.0, 1.0, 2.0):
        sim.timeout(d).callbacks.append(lambda ev: fired.append(sim.now))
    with pytest.raises(ValueError, match="finite"):
        sim.timeout(delay)
    assert sim.pending == 3
    sim.run()
    assert fired == [1.0, 2.0, 3.0] and sim.now == 3.0


def test_fifo_order_for_simultaneous_events():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for i in range(5):
        sim.spawn(proc(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_return_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent(results):
        value = yield sim.spawn(child())
        results.append(value)

    results = []
    sim.spawn(parent(results))
    sim.run()
    assert results == [42]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(1.0)

    sim.spawn(proc())
    sim.run(until=3.5)
    assert sim.now == 3.5


def test_run_until_event_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return "done"

    value = sim.run(until=sim.spawn(child()))
    assert value == "done"
    assert sim.now == 2.0


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


@pytest.mark.parametrize("until", [float("nan"), float("inf"),
                                   float("-inf")])
def test_non_finite_run_until_rejected(until):
    # A NaN stop marker once let the run go on to exhaustion and left the
    # clock at NaN; an infinite one left it at infinity.
    sim = Simulator()
    fired = []
    for d in (3.0, 1.0, 2.0):
        sim.timeout(d).callbacks.append(lambda ev: fired.append(sim.now))
    with pytest.raises(ValueError, match="finite"):
        sim.run(until=until)
    assert fired == [] and sim.now == 0.0 and sim.pending == 3
    assert sim.event_count == 0


def test_run_without_until_runs_to_exhaustion():
    sim = Simulator()
    fired = []
    for d in (3.0, 1.0, 2.0):
        sim.timeout(d).callbacks.append(lambda ev: fired.append(sim.now))
    assert sim.run() is None
    assert fired == [1.0, 2.0, 3.0] and sim.now == 3.0 and sim.pending == 0


def test_manual_event_succeed():
    sim = Simulator()
    ev = Event(sim)
    woke = []

    def waiter():
        value = yield ev
        woke.append((sim.now, value))

    def trigger():
        yield sim.timeout(3.0)
        ev.succeed("hello")

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert woke == [(3.0, "hello")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_failed_event_throws_into_waiter():
    sim = Simulator()
    caught = []

    def waiter(ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = Event(sim)
    sim.spawn(waiter(ev))

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("boom"))

    sim.spawn(trigger())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("explode")

    sim.spawn(bad())
    with pytest.raises(ValueError, match="explode"):
        sim.run()


def test_yield_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_waiting_on_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed("早い")
    log = []

    def late_waiter():
        yield sim.timeout(5.0)
        value = yield ev
        log.append((sim.now, value))

    sim.spawn(late_waiter())
    sim.run()
    assert log == [(5.0, "早い")]


def _fired(legs):
    """The values of the legs dispatched so far."""
    return [leg.value for leg in legs if leg.callbacks is None]


def test_anyof_first_wins():
    sim = Simulator()
    results = []

    def proc():
        legs = [sim.timeout(5.0, value="slow"), sim.timeout(2.0, value="fast")]
        got = yield join(sim, legs, value="first", need=1)
        results.append((sim.now, got, _fired(legs)))

    sim.spawn(proc())
    sim.run()
    assert results == [(2.0, "first", ["fast"])]


def test_allof_waits_for_all():
    sim = Simulator()
    results = []

    def proc():
        legs = [sim.timeout(5.0, value="a"), sim.timeout(2.0, value="b")]
        got = yield join(sim, legs, value="both")
        results.append((sim.now, got, sorted(_fired(legs))))

    sim.spawn(proc())
    sim.run()
    assert results == [(5.0, "both", ["a", "b"])]


def test_join_settles_in_the_dispatch_of_its_last_leg():
    sim = Simulator()
    done = Event(sim)
    legs = [sim.timeout(1.0), sim.timeout(2.0)]
    assert join(sim, legs, value="v", done=done) is done
    seen = []
    done.callbacks.append(lambda ev: seen.append(
        (sim.now, sim.event_count, legs[1].processed)))
    sim.run()
    # Inside the second timeout's dispatch, before it is marked
    # processed: no dispatch of its own.
    assert seen == [(2.0, 2, False)]
    assert sim.event_count == 2 and done.processed and done.value == "v"


def test_join_over_processed_legs_succeeds_through_the_lane():
    sim = Simulator()
    legs = [sim.timeout(1.0), sim.timeout(1.0)]
    sim.run()
    done = join(sim, legs, value="late", need=1)
    assert done.triggered and not done.processed
    assert sim.run(until=done) == "late"
    assert sim.event_count == 3


def test_allof_empty_triggers_immediately():
    sim = Simulator()
    cond = join(sim, [], value="none")
    assert cond.triggered
    assert sim.run(until=cond) == "none"


@pytest.mark.parametrize("legs, need", [(2, 0), (2, 3), (2, -1), (0, 1)])
def test_join_need_out_of_range_raises(legs, need):
    sim = Simulator()
    evs = [sim.timeout(1.0) for _ in range(legs)]
    with pytest.raises(SimulationError, match="need"):
        join(sim, evs, need=need)
    # Nothing attached: the legs dispatch alone.
    assert all(ev.callbacks == [] for ev in evs)


def test_condition_failure_propagates():
    sim = Simulator()
    caught = []

    def proc(ev1, ev2):
        try:
            yield join(sim, [ev1, ev2])
        except RuntimeError as exc:
            caught.append(str(exc))

    ev1, ev2 = Event(sim), Event(sim)
    sim.spawn(proc(ev1, ev2))

    def failer():
        yield sim.timeout(1.0)
        ev1.fail(RuntimeError("part failed"))

    sim.spawn(failer())
    sim.run()
    assert caught == ["part failed"]


def test_event_count_is_deterministic():
    def build():
        sim = Simulator()

        def proc(i):
            yield sim.timeout(i * 0.5)
            yield sim.timeout(1.0)

        for i in range(10):
            sim.spawn(proc(i))
        sim.run()
        return sim.event_count, sim.now

    assert build() == build()


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)


def test_step_on_empty_queue_is_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == pytest.approx(0.0) or sim.peek() <= 4.0


def test_nested_processes_three_deep():
    sim = Simulator()

    def leaf():
        yield sim.timeout(1.0)
        return 1

    def middle():
        v = yield sim.spawn(leaf())
        yield sim.timeout(1.0)
        return v + 1

    def root(out):
        v = yield sim.spawn(middle())
        out.append((sim.now, v))

    out = []
    sim.spawn(root(out))
    sim.run()
    assert out == [(2.0, 2)]


# -- returning processes: settled in place, waited on or not --------------
def _child(sim, value="v", fail=False):
    yield sim.timeout(1.0)
    if fail:
        raise ValueError("explode")
    return value


def _unwaited_and_waited(program):
    """Run ``program(sim, proc)`` twice around one child process: as is,
    so the child returns with nothing waiting, and with a no-op callback
    on the child, as a waited-on process has.  Both complete in place,
    settled in the dispatch that runs the return.  Returns both
    (observations, event_count)."""
    runs = []
    for waited in (False, True):
        sim = Simulator()
        proc = sim.spawn(_child(sim))
        if waited:
            proc.callbacks.append(lambda ev: None)
        runs.append((program(sim, proc), sim.event_count))
    return runs


def test_same_instant_yield_of_a_completed_process_gets_its_value():
    def program(sim, proc):
        log = []

        def waiter():
            # Due at the child's return instant, after its timeout.
            yield sim.timeout(1.0)
            log.append(("waits", proc.processed))
            value = yield proc
            log.append((sim.now, value))

        sim.spawn(waiter())
        sim.run()
        return log, proc.value

    (in_place, n_in_place), (waited, n_waited) = _unwaited_and_waited(program)
    # Waited on or not, the child is processed by the time the waiter,
    # due at the same instant, reaches it.
    assert in_place == waited == ([("waits", True), (1.0, "v")], "v")
    assert n_waited == n_in_place


def test_allof_over_a_process_completed_in_place():
    def program(sim, proc):
        sim.run(until=2.0)
        tick = sim.timeout(0.5, value="t")
        both = join(sim, [proc, tick], value="both")
        return sim.run(until=both), sim.now, _fired([proc, tick])

    (in_place, n_in_place), (waited, n_waited) = _unwaited_and_waited(program)
    assert in_place == waited == ("both", 2.5, ["v", "t"])
    assert n_waited == n_in_place


def test_run_until_a_process_completed_in_place_returns_its_value():
    def program(sim, proc):
        sim.run(until=2.0)
        return proc.processed, sim.run(until=proc), sim.now

    (in_place, n_in_place), (waited, n_waited) = _unwaited_and_waited(program)
    assert in_place == waited == (True, "v", 2.0)
    assert n_waited == n_in_place


def test_failing_process_with_no_waiter_still_surfaces_from_run():
    sim = Simulator()
    proc = sim.spawn(_child(sim, fail=True))
    with pytest.raises(ValueError, match="explode"):
        sim.run()
    # A failure keeps the queued path: the timeout, the start and the
    # completion all dispatched.
    assert proc.processed and not proc.ok
    assert sim.event_count == 3


def test_waiter_resumes_in_the_dispatch_that_returns_the_process():
    sim = Simulator()
    log = []
    proc = sim.spawn(_child(sim))

    def waiter():
        value = yield proc
        log.append((sim.now, sim.event_count, value))

    sim.spawn(waiter())
    sim.run()
    # Two starts and the child's timeout: the waiter resumes inside the
    # timeout's dispatch, the third.
    assert log == [(1.0, 3, "v")] and sim.event_count == 3
    assert proc.processed


# -- Event.settle -------------------------------------------------------------
def test_settle_runs_the_callbacks_in_place_uncounted():
    sim = Simulator()
    done = Event(sim)
    log = []
    done.callbacks.append(lambda ev: log.append(("cb", ev.value, ev.processed)))
    sim.timeout(1.0).callbacks.append(lambda ev: done.settle("x"))
    sim.run()
    assert log == [("cb", "x", False)]
    assert done.processed and done.ok and done.value == "x"
    assert sim.event_count == 1
    with pytest.raises(SimulationError, match="already been triggered"):
        done.settle()


def test_stop_inside_a_settle_takes_effect_in_the_lane():
    """run(until=done), with ``done`` settled inside another event's
    dispatch: the dispatch in progress still runs every callback, and the
    stop takes effect where a queued ``done`` would have dispatched."""
    sim = Simulator()
    outer = sim.timeout(1.0)
    done = Event(sim)
    log = []
    done.callbacks.append(lambda ev: log.append("done waiter"))
    outer.callbacks.append(lambda ev: done.settle("v"))
    outer.callbacks.append(lambda ev: log.append("outer waiter"))
    sim.timeout(1.0).callbacks.append(lambda ev: log.append("next timeout"))
    assert sim.run(until=done) == "v"
    assert log == ["done waiter", "outer waiter", "next timeout"]
    assert outer.processed and sim.now == 1.0
    # done was put back on the lane with the stop hook, like a queued
    # event whose hook stopped the run: triggered, hook consumed.
    assert done.triggered and done.callbacks is None
    sim.run()
    assert log == ["done waiter", "outer waiter", "next timeout"]


# -- a run cut short takes its stop with it ----------------------------------
def _boom(ev):
    raise RuntimeError("boom")


def test_run_until_time_cut_short_leaves_no_stop_marker():
    sim = Simulator()
    fired = []
    sim.timeout(0.5).callbacks.append(_boom)
    sim.timeout(3.0).callbacks.append(lambda ev: fired.append(sim.now))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=1.0)
    assert sim.now == 0.5
    sim.run(until=6.0)
    assert fired == [3.0] and sim.now == 6.0
    sim.run()
    assert sim.pending == 0 and sim.now == 6.0


def test_run_until_event_cut_short_leaves_no_halt():
    sim = Simulator()
    ev = Event(sim)
    after = []
    sim.timeout(0.5).callbacks.append(_boom)
    sim.timeout(1.0).callbacks.append(lambda _e: ev.succeed("x"))
    sim.timeout(2.0).callbacks.append(lambda _e: after.append(sim.now))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=ev)
    assert ev.callbacks == []
    sim.run()
    assert ev.processed and ev.value == "x"
    assert after == [2.0] and sim.now == 2.0


def test_run_until_event_that_never_fires_leaves_no_halt():
    sim = Simulator()
    ev = Event(sim)
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=ev)
    assert ev.callbacks == []
