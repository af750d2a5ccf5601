"""Differential test: the kernel against its heap-only reference.

``tests/kernel_reference.py`` is the scheduler that kept every entry —
due now or later — on one ``(time, priority, seq)`` heap.  The production
kernel sends same-instant pushes to per-priority FIFO lanes and merges
them with the heap in the run loop (and, by a hand-synced copy, in
``step()``).  Random programs run on both kernels and must produce the
same dispatch log — every labelled event with the clock it fired at and
its place in the schedule (``event_count``) —
the same join and process values, the same errors, and after every
top-level operation the same clock, ``event_count``, ``pending`` and
``cancelled``.  A withdrawn deadline is never waited on, joined or run
until afterwards: the reference refuses a cancelled event, while a
withdrawn one is only an event nothing will trigger.

The programs mix zero-delay timeouts, delays that float rounding absorbs
and exact ties; ``succeed``/``fail``/``defuse`` from the top level, from
processes and from deferred callbacks; ``defer`` and nested ``spawn``,
with or without a waiter (a returning process is settled in place on
both kernels, its waiters resumed inside the dispatch that ran it);
joins on any or all of several events, including none; deadlines armed
as a client arms them (a ``Timeout(sim)`` handed to ``schedule``, against
a plain timeout on the reference) and withdrawn with ``withdraw``
(``cancel`` on the reference); ``run(until=t)``
including ``t == now`` while lane entries are pending; ``run(until=ev)``,
which stops mid-instant; and ``step()`` and ``peek()`` in between.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.engine as production

from . import kernel_reference as reference

# Exact ties, zero delays and delays below one ulp of a clock >= 1 (the
# NORMAL lane on the production kernel once time has moved).
_delay = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5, 1e-18, 5e-17]),
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False))
_index = st.integers(min_value=0, max_value=10_000)
_trigger = st.tuples(st.sampled_from(["succeed", "fail", "fail_defused"]),
                     _index)
_action = st.one_of(
    st.none(),
    _trigger,
    st.tuples(st.sampled_from(["timeout", "deadline"]), _delay),
    st.tuples(st.just("withdraw"), _index),
)
# One step of a process script; "spawn" starts a child with a flat script.
_leaf_step = st.one_of(
    st.tuples(st.just("wait"), _index),
    st.tuples(st.just("sleep"), _delay),
    _trigger,
    st.tuples(st.just("deadline"), _delay),
    st.tuples(st.just("withdraw"), _index),
    st.tuples(st.just("defer"), _action),
    st.tuples(st.sampled_from(["any", "all"]),
              st.lists(_index, min_size=0, max_size=3)),
)
# "spawn_quiet" starts a process nothing waits on (no dispatch log), which
# both kernels complete in place unless a later wait or join takes it up.
_step = st.one_of(
    _leaf_step,
    st.tuples(st.sampled_from(["spawn", "spawn_quiet"]),
              st.lists(_leaf_step, max_size=4)),
)
_op = st.one_of(
    st.tuples(st.sampled_from(["timeouts", "deadlines"]),
              st.lists(_delay, min_size=1, max_size=6)),
    st.tuples(st.just("events"), st.integers(min_value=1, max_value=3)),
    _trigger,
    st.tuples(st.just("withdraw"), st.lists(_index, min_size=1, max_size=4)),
    st.tuples(st.sampled_from(["spawn", "spawn_quiet"]),
              st.lists(_step, max_size=6)),
    st.tuples(st.just("defer"), _action),
    st.tuples(st.sampled_from(["any", "all"]),
              st.lists(_index, min_size=0, max_size=4)),
    st.tuples(st.just("run_until"), _delay),
    st.tuples(st.just("run_event"), _index),
    st.tuples(st.just("step"),),
    st.tuples(st.just("peek"),),
)


class _Run:
    """One kernel driven by a program, with everything it observed."""

    def __init__(self, kernel) -> None:
        self.k = kernel
        self.sim = kernel.Simulator()
        self.events: list = []
        self.label: dict[int, int] = {}
        #: ids of the joins' done events, which only their joins trigger
        self.joins: set[int] = set()
        #: label -> what withdraws a deadline: its entry (production) or
        #: the event itself (reference)
        self.deadlines: dict[int, object] = {}
        #: ids of the withdrawn deadlines
        self.void: set[int] = set()
        self.log: list[tuple] = []

    # -- labelled events ----------------------------------------------------
    def add(self, ev, kind: str, logged: bool = True):
        """Label ``ev`` and, if ``logged``, log its dispatch (and value)
        when it fires."""
        index = len(self.events)
        self.events.append(ev)
        self.label[id(ev)] = index
        if logged:
            ev.callbacks.append(lambda e: self.log.append(
                (kind, index, self.sim.now, self.sim.event_count,
                 self.render(e))))
        return ev

    def render(self, ev) -> tuple:
        return ("ok" if ev._ok else "failed", self.render_value(ev._value))

    def render_value(self, value):
        """``value`` with exceptions as text, so the two kernels'
        observations compare equal."""
        if isinstance(value, BaseException):
            return (type(value).__name__, str(value))
        return value

    def pick(self, i):
        """The ``i``-th event modulo the count; None when there is none
        or it is a withdrawn deadline."""
        if not self.events:
            return None
        ev = self.events[i % len(self.events)]
        return None if id(ev) in self.void else ev

    def error(self, where: str, exc: BaseException) -> None:
        self.log.append(("error", where, type(exc).__name__, self.sim.now))

    # -- operations shared by the top level, processes and deferred calls
    def timeout(self, delay: float):
        index = len(self.events)
        return self.add(self.sim.timeout(delay, value=index), "timeout")

    def trigger(self, kind: str, i: int) -> None:
        ev = self.pick(i)
        # Only plain events are triggered by hand; timeouts, processes
        # and joins trigger themselves.
        if (type(ev) is not self.k.Event or ev.triggered
                or id(ev) in self.joins):
            return
        if kind == "succeed":
            ev.succeed(self.label[id(ev)])
        else:
            ev.fail(ValueError(f"boom{self.label[id(ev)]}"))
            if kind == "fail_defused":
                ev.defuse()

    def deadline(self, delay: float):
        """A voidable timeout, armed as a client arms its deadline; a
        delay the clock cannot resolve gives a plain timeout."""
        sim = self.sim
        if sim.now + delay == sim.now:
            return self.timeout(delay)
        index = len(self.events)
        if self.k is production:
            ev = production.Timeout(sim)
            self.deadlines[index] = sim.schedule(ev, sim.now + delay)
        else:
            ev = self.deadlines[index] = sim.timeout(delay)
        return self.add(ev, "deadline")

    def withdraw(self, i: int) -> None:
        """Withdraw the ``i``-th deadline (modulo their count) if it is
        still scheduled."""
        if not self.deadlines:
            return
        labels = list(self.deadlines)
        label = labels[i % len(labels)]
        ev = self.events[label]
        if id(ev) in self.void or ev.callbacks is None:
            return
        handle = self.deadlines[label]
        self.void.add(id(ev))
        if self.k is production:
            self.sim.withdraw(handle)
        else:
            self.sim.cancel(handle)

    def join(self, kind: str, picks: list) -> None:
        """A join of the picked events, on the first of them (``any``) or
        all of them (``all``), valued with its own label; its dispatch
        logs which legs had fired."""
        legs = [ev for ev in map(self.pick, picks) if ev is not None]
        try:
            done = self.k.join(self.sim, legs, len(self.events),
                               1 if kind == "any" else None)
        except self.k.SimulationError as exc:
            self.error(kind, exc)
            return
        self.joins.add(id(done))
        self.add(done, kind)
        done.callbacks.append(lambda e: self.log.append(
            ("legs", sorted(self.label[id(ev)] for ev in legs
                            if ev.callbacks is None and ev._ok
                            and id(ev) not in self.void))))

    def act(self, action) -> None:
        if action is None:
            return
        kind = action[0]
        if kind == "timeout":
            self.timeout(action[1])
        elif kind == "deadline":
            self.deadline(action[1])
        elif kind == "withdraw":
            self.withdraw(action[1])
        else:
            self.trigger(kind, action[1])

    def defer(self, action) -> None:
        index = len(self.events)

        def call(ev):
            self.log.append(("deferred", index, self.sim.now))
            self.act(action)

        self.add(self.sim.defer(call), "defer")

    def spawn(self, steps: list, logged: bool = True) -> None:
        index = len(self.events)
        self.add(self.sim.spawn(self.script(index, steps)), "process",
                 logged)

    def script(self, pid: int, steps: list):
        self.log.append(("start", pid, self.sim.now))
        for step in steps:
            kind = step[0]
            if kind == "wait":
                target = self.pick(step[1])
                if target is None:
                    continue
                try:
                    value = yield target
                except Exception as exc:
                    self.error(f"wait{pid}", exc)
                else:
                    self.log.append(("woke", pid, self.sim.now,
                                     self.render_value(value)))
            elif kind == "sleep":
                yield self.timeout(step[1])
            elif kind == "deadline":
                self.deadline(step[1])
            elif kind == "withdraw":
                self.withdraw(step[1])
            elif kind == "defer":
                self.defer(step[1])
            elif kind in ("any", "all"):
                self.join(kind, step[1])
            elif kind in ("spawn", "spawn_quiet"):
                self.spawn(step[1], kind == "spawn")
            else:
                self.trigger(kind, step[1])
        self.log.append(("return", pid, self.sim.now, self.sim.event_count))
        return pid

    # -- top-level operations ------------------------------------------------
    def apply(self, op) -> None:
        kind = op[0]
        sim = self.sim
        try:
            if kind == "timeouts":
                for delay in op[1]:
                    self.timeout(delay)
            elif kind == "deadlines":
                for delay in op[1]:
                    self.deadline(delay)
            elif kind == "events":
                for _ in range(op[1]):
                    self.add(self.k.Event(sim), "event")
            elif kind == "withdraw":
                for i in op[1]:
                    self.withdraw(i)
            elif kind in ("spawn", "spawn_quiet"):
                self.spawn(op[1], kind == "spawn")
            elif kind == "defer":
                self.defer(op[1])
            elif kind in ("any", "all"):
                self.join(kind, op[1])
            elif kind == "run_until":
                value = sim.run(until=sim.now + op[1])
                self.log.append(("ran", self.render_value(value)))
            elif kind == "run_event":
                target = self.pick(op[1])
                if target is not None:
                    value = sim.run(until=target)
                    self.log.append(("ran", self.render_value(value)))
            elif kind == "step":
                sim.step()
            elif kind == "peek":
                self.log.append(("peek", sim.peek()))
            else:
                self.trigger(kind, op[1])
        except (ValueError, self.k.SimulationError,
                self.k.StopSimulation) as exc:
            # An undefused failure (or a failed process) surfaces here, and
            # so does the stop marker of a run() such a failure cut short.
            self.error(kind, exc)
        self.log.append(("state", sim.now, sim.event_count, sim.pending,
                         sim.cancelled))

    def drain(self) -> None:
        """Run to exhaustion, logging each failure that surfaces and each
        stale stop marker that ends a run early."""
        for _ in range(10_000):
            try:
                self.sim.run()
            except (ValueError, self.k.SimulationError) as exc:
                self.error("drain", exc)
            if self.sim.peek() == math.inf:
                return
            self.log.append(("stopped", self.sim.now))
        raise AssertionError("drain did not terminate")


def _play(ops):
    new = _Run(production)
    ref = _Run(reference)
    for op in ops:
        new.apply(op)
        ref.apply(op)
        assert new.log == ref.log
    new.drain()
    ref.drain()
    assert new.log == ref.log
    assert (new.sim.now, new.sim.event_count, new.sim.pending,
            new.sim.cancelled) == (ref.sim.now, ref.sim.event_count,
                                   ref.sim.pending, ref.sim.cancelled)
    assert new.sim.peek() == math.inf
    return new, ref


@given(st.lists(_op, min_size=1, max_size=30))
@settings(max_examples=400, deadline=None)
def test_kernel_matches_heap_only_reference(ops):
    _play(ops)


def test_lanes_interleave_with_due_heap_entries():
    """The run stops at t=1 on its URGENT marker, leaving a NORMAL heap
    entry due now (pushed at t=0).  Same-instant pushes of both
    priorities follow: the URGENT lane runs before that heap entry, the
    NORMAL lane after it."""
    ops = [("timeouts", [1.0]),                     # 0: NORMAL, heap
           ("run_until", 1.0),                      # URGENT stopper at 1.0
           ("timeouts", [0.0, 1e-18]),              # NORMAL lane twice
           ("spawn", [("sleep", 0.0), ("defer", ("timeout", 0.0))]),
           ("defer", ("succeed", 0)),
           ("run_until", 0.0),                      # stopper in URGENT lane
           ("peek",), ("step",), ("step",), ("step",)]
    new, _ = _play(ops)
    order = [entry[:2] for entry in new.log
             if entry[0] in ("start", "defer", "timeout", "process")]
    # The process returns in timeout 5's dispatch and is settled there,
    # ahead of the deferred call it made on its way out.
    assert order == [("start", 3), ("defer", 4),         # URGENT lane
                     ("timeout", 0),                     # due heap entry
                     ("timeout", 1), ("timeout", 2),     # NORMAL lane
                     ("timeout", 5), ("process", 3), ("defer", 6),
                     ("timeout", 7)]
    assert new.sim.now == 1.0


def test_run_until_time_cut_short_leaves_no_stop_marker():
    """A run(until=1) that a failure cuts short at t=0.5 takes its stop
    marker with it: the next run(until=6) fires the timeout due at t=3 on
    its way, stops at 6 and leaves nothing behind."""
    ops = [("events", 1), ("timeouts", [3.0]),
           ("spawn", [("sleep", 0.5), ("fail", 0)]),
           ("run_until", 1.0),      # aborted at t=0.5 by event 0's failure
           ("run_until", 5.5),      # from t=0.5 to t=6
           ("peek",)]
    new, _ = _play(ops)
    assert [entry for entry in new.log if entry[0] == "error"] == [
        ("error", "run_until", "ValueError", 0.5)]
    assert [entry[:3] for entry in new.log if entry[0] == "timeout"] == [
        ("timeout", 3, 0.5), ("timeout", 1, 3.0)]
    assert ("peek", math.inf) in new.log
    assert new.sim.now == 6.0 and new.sim.pending == 0


def test_run_until_event_cut_short_leaves_no_halt():
    """A run(until=ev) cut short by another event's failure takes its
    hook off ``ev``: a later run(until=1) dispatches ``ev`` at t=0 in its
    lane's order, like any other event, and stops at its own marker."""
    ops = [("events", 2), ("fail", 0), ("succeed", 1),
           ("run_event", 1),        # aborted by the failure of event 0
           ("timeouts", [0.0, 0.0]), ("defer", None),
           ("run_until", 1.0),
           ("spawn", []),
           ("peek",), ("step",), ("run_until", 0.0)]
    new, _ = _play(ops)
    assert [entry for entry in new.log if entry[0] == "error"] == [
        ("error", "run_event", "ValueError", 0.0)]
    fired = [entry[:3] for entry in new.log
             if entry[0] in ("event", "timeout", "defer", "start")]
    assert fired == [("event", 0, 0.0), ("defer", 4, 0.0),
                     ("event", 1, 0.0), ("timeout", 2, 0.0),
                     ("timeout", 3, 0.0), ("start", 5, 1.0)]
    assert new.events[1].processed and new.sim.now == 1.0


@pytest.mark.parametrize("kernel", [production, reference],
                         ids=["production", "reference"])
def test_run_until_event_stop_keeps_the_later_waiters(kernel):
    """run(until=ev) hooks ``ev`` when called, so a process started before
    the run attaches to ``ev`` behind the hook.  The stop ends the run,
    not the dispatch: that waiter resumes in the same dispatch, and
    ``ev`` is processed."""
    sim = kernel.Simulator()
    ev = kernel.Event(sim)
    woke = []

    def waiter():
        value = yield ev
        woke.append((value, sim.now))

    sim.spawn(waiter())
    sim.timeout(1.0).callbacks.append(lambda _t: ev.succeed("x"))
    assert sim.run(until=ev) == "x"
    assert woke == [("x", 1.0)] and ev.processed
    sim.run()
    assert woke == [("x", 1.0)] and sim.event_count == 3


def test_withdraw_of_heap_entries():
    """Only a deadline still on the heap is withdrawn: a zero-delay one is
    a plain lane timeout, and a repeat of a withdrawn one is skipped."""
    ops = [("deadlines", [3.0, 0.0, 3.0, 3.0]),
           ("timeouts", [0.0]),
           ("withdraw", [0, 1, 1]),                 # events 0 and 2
           ("peek",), ("step",), ("run_until", 0.0), ("step",)]
    new, ref = _play(ops)
    assert new.sim.cancelled == 2 and len(new.void) == 2
    assert ref.sim.event_count == new.sim.event_count == 4
    assert new.sim.now == 3.0 and new.events[3].processed


def test_same_instant_pushes_skip_the_heap():
    """Only strictly-future entries reach the heap."""
    sim = production.Simulator(start_time=1.0)
    ev = production.Event(sim)
    ev.succeed()
    sim.defer(lambda e: None)
    zero = sim.timeout(0.0)
    absorbed = sim.timeout(1e-18)   # below one ulp of the clock
    sim.timeout(0.5)
    assert len(sim._queue) == 1 and sim.pending == 5
    assert sim.peek() == 1.0
    sim.run(until=1.0)              # stopper in the URGENT lane: stops
    assert sim.event_count == 2     # after the deferred call, before NORMAL
    sim.run()
    assert absorbed.processed and zero.processed
    assert sim.event_count == 6 and sim.now == 1.5


def test_process_nothing_waits_on_completes_in_place():
    """A process returning with no waiter is processed in place on both
    kernels: a later wait resumes at once with its value, and only the
    two starts are dispatched, with the stop."""
    ops = [("spawn_quiet", []), ("spawn", [("wait", 0)]), ("run_until", 1.0)]
    new, _ = _play(ops)
    assert ("woke", 1, 0.0, 0) in new.log
    assert new.events[0].processed and new.events[0].value == 0
    # Two starts and the stop: the waited-on process, too, is settled in
    # place, in the dispatch that runs its return.
    assert new.sim.event_count == 3
