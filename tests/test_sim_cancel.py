"""Voidable entries: ``Simulator.schedule``/``withdraw`` against a no-op
reference.

A withdrawn entry is never dispatched, never counted and never moves the
clock; it counts in ``cancelled``, and the heap is compacted once dead
entries outnumber live ones.  The reference is the frozen heap-only
kernel (``tests/kernel_reference.py``) with cancellation reduced to
emptying the event's callback list, the way superseded fair-share timers
were once retired: the entry keeps its heap slot and dispatches as a
no-op.  Random programs — timeouts, withdrawals (from the top level and
from inside processes), ``join`` waits on any or all of their legs,
``step()``, ``run(until=t)`` and ``peek()`` — run through both and must
agree on every live dispatch, its clock, the legs each join saw fired
and ``event_count`` up to the dead entries the reference dispatched.  A
timeout the production program may void is armed the way a client arms
its deadline: a ``Timeout(sim)`` handed to ``schedule``.  The reference
helpers read the reference kernel's own heap, which holds every
scheduled entry (the production heap holds only strictly-future ones).

The wake-up re-arm differential drives both ways a holder re-arms: a
fresh ``Timeout(sim)`` per arm (a client's deadline) and one reusable
waker (a fair-share station), each withdrawing the entry it armed last.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.engine as production
from repro.sim import Event, SimulationError, Simulator, Timeout, join

from . import kernel_reference as reference


class _NoOpCancelSimulator(reference.Simulator):
    """The reference: cancel() only empties the callback list."""

    def cancel(self, event) -> None:
        if event.callbacks is not None:
            event.callbacks.clear()


class _Run:
    """One simulator driven by a program, with everything it observed."""

    def __init__(self, kernel, sim) -> None:
        self.k = kernel
        self.sim = sim
        self.events: list[Event] = []
        self.label: dict[int, int] = {}
        #: label -> what voids a heap timeout: its entry (production) or
        #: the event itself (reference)
        self.voidable: dict[int, object] = {}
        #: events withdrawn while still scheduled (the dead entries)
        self.dead: list[Event] = []
        self.log: list[tuple] = []

    def timeout(self, delay: float) -> Event:
        """A labelled timeout; a heap one is voidable, a lane one (a delay
        the clock cannot resolve) is not, on both kernels alike."""
        index = len(self.events)
        sim = self.sim
        if sim.now + delay == sim.now:
            ev = sim.timeout(delay, value=index)
        elif self.k is production:
            ev = Timeout(sim)
            self.voidable[index] = sim.schedule(ev, sim.now + delay)
        else:
            ev = self.voidable[index] = sim.timeout(delay)
        ev.callbacks.append(
            lambda e, i=index: self.log.append(("fire", i, self.sim.now)))
        self.events.append(ev)
        self.label[id(ev)] = index
        return ev

    def cancel(self, ev: Event) -> None:
        """Void ``ev``'s entry if it is a heap timeout still scheduled."""
        handle = self.voidable.get(self.label[id(ev)])
        if handle is None or ev.callbacks is None or ev in self.dead:
            return
        self.dead.append(ev)
        if self.k is production:
            self.sim.withdraw(handle)
        else:
            self.sim.cancel(handle)

    def fired(self, legs: list) -> list:
        """The labels and values of ``legs`` dispatched so far, dead
        entries left out (the reference dispatches a dead entry as a
        no-op)."""
        return sorted((self.label[id(ev)], ev.value) for ev in legs
                      if ev.callbacks is None and ev not in self.dead)

    def wait(self, kind: str, picks: list, then_cancel, child) -> None:
        legs = [self.events[i] for i in picks]
        tag = len(self.log)
        done = self.k.join(self.sim, legs, tag, 1 if kind == "any" else None)

        def waiter():
            got = yield done
            self.log.append((kind, got, self.sim.now, self.fired(legs)))
            if then_cancel is not None:
                self.cancel(self.events[then_cancel % len(self.events)])
            if child is not None:
                self.timeout(child)

        self.sim.spawn(waiter())

    def live_head(self) -> float:
        """Time of the next entry that is not dead (reference side)."""
        dead = {id(ev) for ev in self.dead}
        return min((entry[0] for entry in self.sim._queue
                    if id(entry[3]) not in dead), default=math.inf)

    def step_live(self) -> None:
        """Reference step(): dispatch dead entries until one live one ran."""
        dead = {id(ev) for ev in self.dead}
        while id(self.sim._queue[0][3]) in dead:
            self.sim.step()
        self.sim.step()


_delay = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0, 3.0]),
                   st.floats(min_value=0.0, max_value=40.0,
                             allow_nan=False, allow_infinity=False))
_index = st.integers(min_value=0, max_value=10_000)
# Withdrawals are drawn often and in batches, so that dead entries
# regularly outnumber live ones and the heap compacts mid-program.
_cancel = st.tuples(st.just("cancel"),
                    st.lists(_index, min_size=1, max_size=10))
_op = st.one_of(
    st.tuples(st.just("timeouts"), st.lists(_delay, min_size=1, max_size=8)),
    _cancel, _cancel,
    st.tuples(st.sampled_from(["any", "all"]),
              st.lists(_index, min_size=1, max_size=4),
              st.one_of(st.none(), _index), st.one_of(st.none(), _delay)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), _delay),
    st.tuples(st.just("peek")),
)


def _play(ops):
    new = _Run(production, Simulator())
    ref = _Run(reference, _NoOpCancelSimulator())
    for op in ops:
        kind = op[0]
        for run in (new, ref):
            if kind == "timeouts":
                for delay in op[1]:
                    run.timeout(delay)
            elif kind == "cancel" and run.events:
                withdrawn = run.sim.cancelled
                for i in op[1]:
                    run.cancel(run.events[i % len(run.events)])
                if run is new and new.sim.cancelled > withdrawn:
                    # Compaction: dead entries never outnumber live ones
                    # right after a withdrawal.
                    assert len(new.sim._queue) <= 2 * new.sim.pending
            elif kind in ("any", "all") and run.events:
                # Joins are built on events that are still live.
                picks = [i % len(run.events) for i in op[1]]
                picks = [i for i in picks if run.events[i] not in run.dead]
                if picks:
                    run.wait(kind, picks, op[2], op[3])
            elif kind == "run_until":
                run.sim.run(until=run.sim.now + op[1])
        if kind == "step":
            if new.sim.peek() < math.inf:
                new.sim.step()
                ref.step_live()
            else:
                assert ref.live_head() == math.inf
        elif kind == "peek":
            assert new.sim.peek() == ref.live_head()
        assert new.log == ref.log
        assert new.sim.now == ref.sim.now
        assert new.sim.pending == sum(1 for entry in ref.sim._queue
                                      if entry[3] not in ref.dead)
    new.sim.run()
    ref.sim.run()
    assert new.log == ref.log
    assert ([new.label[id(ev)] for ev in new.dead]
            == [ref.label[id(ev)] for ev in ref.dead])
    assert new.sim.cancelled == len(new.dead)
    assert new.sim.pending == 0
    dispatched_dead = sum(1 for ev in ref.dead if ev.callbacks is None)
    assert ref.sim.event_count - new.sim.event_count == dispatched_dead
    return new, ref


@given(st.lists(_op, min_size=8, max_size=40))
@settings(max_examples=300, deadline=None)
def test_cancellation_matches_no_op_reference(ops):
    _play(ops)


def test_reference_program_reaches_compaction():
    """A fixed program whose withdrawals outnumber the live entries."""
    ops = [("timeouts", [50.0 + i for i in range(8)]) for _ in range(8)]
    ops += [("any", [i, i + 1], None, None) for i in range(0, 60, 3)]
    ops += [("cancel", list(range(i, i + 6))) for i in range(0, 60, 6)]
    ops += [("peek",), ("step",), ("run_until", 5.0), ("step",)]
    new, ref = _play(ops)
    assert new.sim.cancelled == 60
    assert new.sim.event_count < ref.sim.event_count


# -- unit cases --------------------------------------------------------------
def _deadline(sim: Simulator, when: float) -> tuple[Timeout, list]:
    """A client-style deadline: a triggered event and its heap entry."""
    ev = Timeout(sim)
    return ev, sim.schedule(ev, when)


def test_cancelled_timeout_never_dispatches_or_moves_the_clock():
    sim = Simulator()
    fired = []
    early = sim.timeout(1.0)
    late, entry = _deadline(sim, 10.0)
    late.callbacks.append(lambda ev: fired.append(sim.now))
    sim.withdraw(entry)
    sim.run()
    assert fired == []
    assert sim.now == 1.0
    assert sim.event_count == 1
    assert sim.cancelled == 1
    assert sim.pending == 0
    assert early.processed and not late.processed


def test_rejected_join_leaves_its_legs_as_it_found_them():
    sim = Simulator()
    early = sim.timeout(0.0)
    sim.run()
    live = sim.timeout(1.0)
    other = Simulator().timeout(1.0)
    for legs in ([early, live, other], [live, live, other]):
        with pytest.raises(SimulationError):
            join(sim, legs, need=1)
        assert live.callbacks == []
    # The processed leg completed no join: nothing was queued.
    assert sim.pending == 1
    sim.run()
    assert sim.event_count == 2


def test_condition_value_leaves_out_an_event_cancelled_later():
    sim = Simulator()
    a, entry = _deadline(sim, 1.0)
    b = sim.timeout(2.0, value="b")
    done = join(sim, [a, b], value="first", need=1)
    sim.withdraw(entry)
    # The withdrawn leg never counts: the surviving one completes it.
    assert sim.run(until=done) == "first"
    assert sim.now == 2.0 and b.processed and not a.processed


def test_waiter_on_an_event_cancelled_later_never_resumes():
    sim = Simulator()
    ev, entry = _deadline(sim, 3.0)
    woke = []

    def waiter():
        yield ev
        woke.append(sim.now)

    sim.spawn(waiter())
    sim.run(until=1.0)
    sim.withdraw(entry)
    sim.run()
    assert woke == []
    assert sim.now == 1.0


def test_peek_and_step_skip_cancelled_entries():
    for probe in ("peek", "step"):
        sim = Simulator()
        armed = [_deadline(sim, float(t)) for t in range(1, 6)]
        sim.withdraw(armed[0][1])
        sim.withdraw(armed[1][1])
        # Two dead of five: below the compaction threshold, so the dead
        # entries are still at the top of the heap.
        assert len(sim._queue) == 5 and sim.pending == 3
        if probe == "peek":
            assert sim.peek() == 3.0
            assert sim.now == 0.0 and sim.event_count == 0
        else:
            sim.step()
            assert sim.now == 3.0 and armed[2][0].processed
            assert sim.event_count == 1
        assert sim.pending == len(sim._queue)
    sim.run()
    assert sim.peek() == math.inf
    with pytest.raises(SimulationError):
        sim.step()


def test_run_until_time_skips_cancelled_entries():
    sim = Simulator()
    sim.withdraw(_deadline(sim, 1.0)[1])
    kept = sim.timeout(2.0)
    sim.run(until=5.0)
    assert kept.processed and sim.now == 5.0
    assert sim.event_count == 2  # the timeout and the stop marker


def test_heap_stays_within_twice_live_plus_a_constant():
    """Client-style deadlines: each request arms a long deadline, its reply
    wins, and the deadline is withdrawn.  The heap never holds more than
    twice the live entries plus a constant."""
    sim = Simulator()
    worst = [0, 0]
    settled = [0]

    def request(i):
        deadline, entry = _deadline(sim, sim.now + 120.0)
        try:
            yield join(sim, [sim.timeout(0.5 + (i % 7) * 0.3), deadline],
                       need=1)
        finally:
            settled[0] += 1
            if deadline.callbacks is not None:
                sim.withdraw(entry)

    def arrivals():
        for i in range(3000):
            sim.spawn(request(i))
            yield sim.timeout(0.05)
            live = sim.pending
            worst[0] = max(worst[0], len(sim._queue) - 2 * live)
            worst[1] = max(worst[1], live)

    sim.run(until=sim.spawn(arrivals()))
    assert worst[0] <= 2
    assert worst[1] < 200
    assert sim.cancelled == settled[0] > 2900


def test_compaction_during_run_keeps_the_live_order():
    sim = Simulator()
    order = []
    doomed = [_deadline(sim, 100.0 + i)[1] for i in range(50)]
    for i in range(20):
        ev = sim.timeout(float(i % 5), value=i)
        ev.callbacks.append(lambda e: order.append((sim.now, e.value)))

    def canceller():
        yield sim.timeout(1.5)
        for entry in doomed:
            sim.withdraw(entry)
        assert len(sim._queue) <= 2 * sim.pending < 50

    sim.spawn(canceller())
    sim.run()
    assert order == sorted(order)
    assert [v for _, v in order] == sorted(range(20), key=lambda i: (i % 5, i))
    assert sim.cancelled == 50 and sim.pending == 0
    assert sim.now == 4.0


# -- the wake-up re-arm: a fresh timer per arm vs the reference -------------
class _Stations:
    """``k`` wake-up holders on one kernel, each re-armed with a fresh
    timer: void the armed timer, arm a new one with its callback
    appended.  On the production kernel a timer is a ``Timeout(sim)``
    armed with ``schedule()`` and voided with ``withdraw()``, as a
    client's deadline is; on the reference it is a ``timeout()`` voided
    with ``cancel()``."""

    def __init__(self, kernel, k: int) -> None:
        self.k = kernel
        self.sim = kernel.Simulator()
        #: per station, what voids its armed timer: the entry
        #: (production) or the event (reference); None when unarmed
        self.timers = [None] * k
        self.log: list[tuple] = []

    def arm(self, station: int, delay: float) -> None:
        sim = self.sim
        armed = self.timers[station]
        if armed is not None:
            (sim.withdraw if self.k is production else sim.cancel)(armed)

        def wake(ev, station=station):
            self.timers[station] = None
            self.log.append((station, sim.now, sim.event_count))

        if self.k is production:
            timer = Timeout(sim)
            timer.callbacks.append(wake)
            self.timers[station] = sim.schedule(timer, sim.now + delay)
        else:
            timer = sim.timeout(delay)
            timer.callbacks.append(wake)
            self.timers[station] = timer

    def state(self) -> tuple:
        # Every entry is strictly in the future (delays and gaps > 0), so
        # both heaps hold the same entries and compact at the same points.
        sim = self.sim
        return (sim.now, sim.event_count, sim.pending, sim.cancelled,
                len(sim._queue))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.floats(min_value=1e-3, max_value=20.0,
                                    allow_nan=False, allow_infinity=False),
                          st.one_of(st.just(None),
                                    st.floats(min_value=1e-3, max_value=5.0,
                                              allow_nan=False,
                                              allow_infinity=False))),
                min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_wakeup_rearm_matches_reference(ops):
    _assert_rearms_match_reference(_Stations(production, 4), ops)


def _assert_rearms_match_reference(new, ops):
    """Drive ``new`` and the reference's stations through ``ops``: the
    same wake-ups at the same clocks, and the same clock, event_count,
    pending, cancelled and heap length after every arm (so both heaps
    compact at the same points)."""
    ref = _Stations(reference, 4)
    for station, delay, gap in ops:
        for run in (new, ref):
            run.arm(station, delay)
            if gap is not None:
                run.sim.run(until=run.sim.now + gap)
        assert new.log == ref.log
        assert new.state() == ref.state()
    new.sim.run()
    ref.sim.run()
    assert new.log == ref.log
    assert new.state() == ref.state()


def test_wakeup_rearms_compact_the_heap():
    """Back-to-back re-arms of one wake-up: each withdraws the last, so
    the heap compacts whenever its dead entries outnumber live ones."""
    _assert_rearms_compact(_Stations(production, 2))


def _assert_rearms_compact(new):
    ref = _Stations(reference, 2)
    sizes = []
    for i in range(40):
        for run in (new, ref):
            run.arm(i % 2, 10.0 + i)
        assert new.state() == ref.state()
        sizes.append(len(new.sim._queue))
    assert max(sizes) <= 4 and new.sim.cancelled == 38
    new.sim.run()
    ref.sim.run()
    assert new.log == ref.log == [(0, 48.0, 1), (1, 49.0, 2)]


# -- schedule()/withdraw(): one reusable waker per station ------------------
class _Wakers:
    """``_Stations`` on the production kernel the way a fair-share station
    arms now: each station owns one reusable waker event, armed with
    ``schedule()``; the armed entry is voided with ``withdraw()``, and the
    waker restores the callbacks the kernel cleared on dispatch.  It must
    match the reference's fresh-timeout-and-cancel stations entry for
    entry."""

    def __init__(self, k: int) -> None:
        self.sim = production.Simulator()
        self.entries = [None] * k
        self.wakers = []
        self.log: list[tuple] = []
        for station in range(k):
            waker = Timeout(self.sim)
            waker.callbacks.append(
                lambda ev, station=station: self.wake(station, ev))
            self.wakers.append((waker, waker.callbacks))

    def wake(self, station: int, ev: Event) -> None:
        waker, callbacks = self.wakers[station]
        assert ev is waker and waker.callbacks is None
        waker.callbacks = callbacks
        self.entries[station] = None
        self.log.append((station, self.sim.now, self.sim.event_count))

    def arm(self, station: int, delay: float) -> None:
        entry = self.entries[station]
        if entry is not None:
            self.sim.withdraw(entry)
        self.entries[station] = self.sim.schedule(
            self.wakers[station][0], self.sim.now + delay)

    state = _Stations.state


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.floats(min_value=1e-3, max_value=20.0,
                                    allow_nan=False, allow_infinity=False),
                          st.one_of(st.just(None),
                                    st.floats(min_value=1e-3, max_value=5.0,
                                              allow_nan=False,
                                              allow_infinity=False))),
                min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_schedule_withdraw_rearm_matches_reference(ops):
    _assert_rearms_match_reference(_Wakers(4), ops)


def test_withdraw_rearms_compact_the_heap():
    _assert_rearms_compact(_Wakers(2))


def test_withdrawn_entry_never_dispatches_and_its_event_stays_yieldable():
    sim = Simulator()
    ev = Event(sim)
    woke = []

    def waiter():
        value = yield ev
        woke.append((value, sim.now))

    sim.spawn(waiter())
    # The event is triggered by its first callback at dispatch time, as
    # a lone fair-share job is by its completion hook.
    ev.callbacks.append(lambda e: None)
    entry = sim.schedule(ev, 3.0)
    assert entry[:3] == [3.0, 1, 1] and entry[3] is ev
    sim.withdraw(entry)
    assert entry[3] is not ev and entry[3].callbacks is None
    assert sim.cancelled == 1 and sim.pending == 1  # the waiter's start
    sim.run(until=5.0)
    # Never dispatched: the waiter still waits and the event is pending.
    assert woke == [] and not ev.triggered
    assert sim.event_count == 2  # the waiter's start and the stop marker
    assert sim.pending == 0 and len(sim._queue) == 0
    # Still yieldable: it fires once triggered, its waiter resumes.
    ev.succeed("late")
    sim.run()
    assert woke == [("late", 5.0)]


def test_a_withdrawn_event_can_be_scheduled_again():
    sim = Simulator()
    waker = Timeout(sim)
    fired = []
    callbacks = [lambda ev: fired.append(sim.now)]
    waker.callbacks = callbacks
    sim.withdraw(sim.schedule(waker, 2.0))
    entry = sim.schedule(waker, 4.0)
    assert entry[2] == 2  # each schedule takes the next sequence number
    sim.run()
    assert fired == [4.0] and sim.now == 4.0
    assert sim.event_count == 1 and sim.cancelled == 1
    # Dispatch cleared the callbacks; restored, the waker is reusable.
    waker.callbacks = callbacks
    sim.schedule(waker, 6.0)
    sim.run()
    assert fired == [4.0, 6.0] and sim.event_count == 2


def test_schedule_shares_the_sequence_with_timeouts():
    sim = Simulator()
    order = []
    first = sim.timeout(1.0)
    first.callbacks.append(lambda ev: order.append("timeout-1"))
    ev = Timeout(sim)
    ev.callbacks.append(lambda e: order.append("scheduled"))
    sim.schedule(ev, 1.0)
    second = sim.timeout(1.0)
    second.callbacks.append(lambda e: order.append("timeout-2"))
    sim.run()
    assert order == ["timeout-1", "scheduled", "timeout-2"]


@pytest.mark.parametrize("when", [0.0, 1.0, -1.0, math.nan, math.inf])
def test_schedule_needs_a_finite_future_instant(when):
    sim = Simulator()
    sim.run(until=1.0)
    with pytest.raises(ValueError):
        sim.schedule(Event(sim), when)
    assert sim._queue == [] and sim.pending == 0
