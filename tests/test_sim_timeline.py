"""``Simulator.timeline`` against the timeouts it stands in for.

A timeline reserves the sequence numbers that one ``timeout()`` per
instant, armed at the call, would take, and dispatches entry ``i`` under
exactly that timeout's key while keeping one entry on the heap at a time.
Random programs arm series, plain timeouts and run the clock through
``run(until=t)``, ``step()`` and ``peek()``; each series entry (and each
plain timeout) does one thing when it fires: nothing, a NORMAL-lane
``succeed``, an URGENT ``defer``, a new timeout or a raise.  The same
program runs three ways: series as timelines on the production kernel,
series as timeouts on the production kernel, and series as timeouts on
the heap-only reference kernel (``tests/kernel_reference.py``).  All
three must log the same dispatches (label, clock and ``event_count``),
raise at the same points and agree on the clock, ``event_count``,
``pending`` and ``peek()`` after every operation.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.engine as production
from repro.sim import Simulator

from . import kernel_reference as reference


class _Boom(Exception):
    """What a raising entry throws out of the run."""


class _Run:
    """One kernel driven by a program; ``series`` arms a series as a
    timeline or as one timeout per instant."""

    def __init__(self, kernel, series: str) -> None:
        self.k = kernel
        self.sim = kernel.Simulator()
        self.series = series
        self.log: list[tuple] = []
        self.labels = 0

    def fire(self, label, action) -> None:
        sim = self.sim
        self.log.append((label, sim.now, sim.event_count))
        kind, arg = action
        if kind == "succeed":
            ev = self.k.Event(sim)
            ev.callbacks.append(lambda e: self.log.append(
                (label, "succeeded", sim.now, sim.event_count)))
            ev.succeed()
        elif kind == "defer":
            sim.defer(lambda e: self.log.append(
                (label, "deferred", sim.now, sim.event_count)))
        elif kind == "timeout":
            self.timeouts([arg], [("none", None)])
        elif kind == "raise":
            raise _Boom(label)

    def timeouts(self, delays, actions) -> None:
        for delay, action in zip(delays, actions):
            self.labels += 1
            label = ("t", self.labels)
            self.sim.timeout(delay).callbacks.append(
                lambda e, label=label, action=action: self.fire(label, action))

    def arm(self, delays, actions) -> None:
        """A series at ``now + d`` for each sorted ``d``: the instants
        ``timeout(d)`` computes."""
        now = self.sim.now
        delays = sorted(d for d in delays if now + d > now)
        self.labels += 1
        tag = self.labels
        if self.series == "timeline":
            self.sim.timeline([now + d for d in delays],
                              lambda i: self.fire(("s", tag, i), actions[i]))
            return
        for i, delay in enumerate(delays):
            self.sim.timeout(delay).callbacks.append(
                lambda e, i=i: self.fire(("s", tag, i), actions[i]))

    def guarded(self, call) -> None:
        """``call()``, then ``run()`` after each raise until none: a raise
        inside ``run(until=t)`` leaves its stop marker behind, and that
        marker ends the resumed run at ``t``."""
        while True:
            try:
                call()
                return
            except _Boom as exc:
                self.log.append(("raised", exc.args[0], self.sim.now))
                call = self.sim.run

    def state(self) -> tuple:
        sim = self.sim
        return sim.now, sim.event_count, sim.pending, sim.peek()


_delay = st.one_of(st.sampled_from([0.5, 1.0, 1.0, 2.0, 1e-18]),
                   st.floats(min_value=0.0, max_value=20.0,
                             allow_nan=False, allow_infinity=False))
_action = st.one_of(
    st.tuples(st.sampled_from(["none", "succeed", "defer", "raise"]),
              st.none()),
    st.tuples(st.just("timeout"), _delay))
_op = st.one_of(
    st.tuples(st.just("series"), st.lists(_delay, max_size=12),
              st.lists(_action, min_size=12, max_size=12)),
    st.tuples(st.just("timeouts"), st.lists(_delay, min_size=1, max_size=4),
              st.lists(_action, min_size=4, max_size=4)),
    st.tuples(st.just("run_until"), _delay),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
)


def _play(ops) -> _Run:
    runs = [_Run(production, "timeline"), _Run(production, "timeouts"),
            _Run(reference, "timeouts")]
    for op in ops:
        for run in runs:
            kind = op[0]
            if kind == "series":
                run.arm(op[1], op[2])
            elif kind == "timeouts":
                run.timeouts(op[1], op[2])
            elif kind == "run_until":
                run.guarded(lambda: run.sim.run(until=run.sim.now + op[1]))
            elif kind == "step" and run.sim.peek() < math.inf:
                try:
                    run.sim.step()
                except _Boom as exc:
                    run.log.append(("raised", exc.args[0], run.sim.now))
        first = runs[0]
        for run in runs[1:]:
            assert run.log == first.log
            assert run.state() == first.state()
    for run in runs:
        run.guarded(run.sim.run)
    assert runs[1].log == runs[0].log and runs[2].log == runs[0].log
    assert runs[1].state() == runs[0].state() == runs[2].state()
    assert runs[0].sim.pending == 0
    return runs[0]


@given(st.lists(_op, min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_timeline_dispatches_as_timeouts_armed_at_the_call(ops):
    _play(ops)


def test_equal_instants_shared_ties_lanes_and_a_mid_series_stop():
    """Equal instants, ties with timeouts armed before and after, lane
    work at a series instant, a stop marker on a series instant (URGENT,
    so it goes first) and a resumed run."""
    ops = [
        ("timeouts", [1.0, 2.0], [("succeed", None), ("defer", None)]),
        ("series", [1.0, 1.0, 2.0, 2.0, 3.0],
         [("defer", None), ("succeed", None), ("timeout", 0.0),
          ("timeout", 1.0), ("none", None)] + [("none", None)] * 7),
        ("timeouts", [1.0, 2.0, 3.0], [("defer", None)] * 4),
        ("run_until", 2.0),
        ("peek",),
        ("step",),
        ("step",),
    ]
    run = _play(ops)
    assert [entry[:2] for entry in run.log
            if entry[0][0] == "s" and len(entry) == 3] == [
        (("s", 3, 0), 1.0), (("s", 3, 1), 1.0), (("s", 3, 2), 2.0),
        (("s", 3, 3), 2.0), (("s", 3, 4), 3.0)]


def test_a_raising_entry_leaves_the_rest_for_a_later_run():
    ops = [("series", [1.0, 2.0, 3.0],
            [("none", None), ("raise", None), ("none", None)]
            + [("none", None)] * 9),
           ("run_until", 5.0)]
    run = _play(ops)
    assert run.log == [(("s", 1, 0), 1.0, 1), (("s", 1, 1), 2.0, 2),
                       ("raised", ("s", 1, 1), 2.0), (("s", 1, 2), 3.0, 3)]


def test_one_entry_on_the_heap_and_pending_counts_the_parked_ones():
    sim = Simulator()
    fired = []
    sim.timeline([float(i) for i in range(1, 101)],
                 lambda i: fired.append((i, sim.now)))
    assert len(sim._queue) == 1 and sim.pending == 100
    assert sim.peek() == 1.0
    sim.run(until=50.5)
    assert len(sim._queue) == 1 and sim.pending == 50
    sim.run()
    assert fired == [(i, float(i + 1)) for i in range(100)]
    assert sim.pending == 0 and sim.event_count == 101  # + the stop marker


def test_the_series_reserves_its_keys_at_the_call():
    sim = Simulator()
    order = []
    before = sim.timeout(2.0)
    before.callbacks.append(lambda e: order.append("before"))
    sim.timeline([1.0, 2.0, 2.0], lambda i: order.append(i))
    after = sim.timeout(2.0)
    after.callbacks.append(lambda e: order.append("after"))
    assert sim._seq == 5
    sim.run()
    assert order == [0, "before", 1, 2, "after"]


def test_an_empty_series_is_a_no_op():
    sim = Simulator()
    sim.timeline([], lambda i: pytest.fail("called"))
    assert sim._seq == 0 and sim.pending == 0 and sim._queue == []


@pytest.mark.parametrize("whens", [
    [2.0, 1.0], [1.0, 3.0, 2.0], [math.nan], [1.0, math.nan, 3.0],
    [math.inf], [1.0, math.inf], [-math.inf, 1.0], [0.5], [0.5, 2.0],
    [-1.0, 2.0]])
def test_bad_instants_are_rejected(whens):
    sim = Simulator()
    sim.run(until=0.5)
    with pytest.raises(ValueError):
        sim.timeline(whens, lambda i: None)
    assert sim._queue == [] and sim.pending == 0 and sim._seq == 1
