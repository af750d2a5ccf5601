"""Differential test: the fair-share server against its reference allocator.

``tests/fairshare_reference.py`` holds the generation-counter
implementation of :class:`~repro.sim.FairShareServer` that preceded the
one-timer rewrite.  Both servers are driven through the same random
operation sequence — submits with weights, caps and zero or sub-epsilon
work, rate changes and load-integral reads between events — each
on its own simulator, and must agree *exactly*: completion order and
outcome, every ``finished_at`` (compared as ``repr``), ``work_completed``,
both integrals at every read and as accrued at the end, the clock of the
last live dispatch, and the live dispatch count.

The reference leaves a superseded wake-up on the heap, where it later
dispatches as a no-op (and moves the clock); the production server
withdraws it with ``Simulator.withdraw``.  The reference queues every
completion; the production server dispatches the jobs a wake-up completes
in place, inside the wake-up's dispatch, and a job left alone in service
is its own wake-up entry (one dispatch that completes it).  So the
production kernel's
``event_count`` must equal the reference's minus the superseded wake-ups
the reference dispatched and minus the jobs completed in place, its clock
must stop at the last live dispatch,
and every superseded wake-up must be exactly one cancelled entry.  The
production server must also have armed exactly as many wake-ups as the
reference dispatched, live and stale together.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import FairShareServer, Simulator

from .fairshare_reference import ReferenceFairShareServer


class _Production(FairShareServer):
    """The production server, noting the clock of its last wake-up (every
    wake-up that reaches it is live: superseded ones are withdrawn) and
    counting the jobs its wake-ups complete in place.  A lone job's own
    entry is a wake-up that completes that one job in place."""

    stale = 0
    woken = 0
    in_place = 0
    live_wake_at = 0.0

    def _wake(self, timer):
        self.woken += 1
        self.live_wake_at = self.sim.now
        before = self.jobs_completed
        super()._wake(timer)
        self.in_place += self.jobs_completed - before

    def _lone_due(self, job):
        self.woken += 1
        self.live_wake_at = self.sim.now
        self.in_place += 1
        super()._lone_due(job)


class _Reference(ReferenceFairShareServer):
    """The reference, counting the superseded wake-ups it dispatches as
    no-ops and noting the clock of its last live wake-up."""

    stale = 0
    woken = 0
    in_place = 0
    live_wake_at = 0.0

    def _wake(self, generation):
        self.woken += 1
        if generation != self._generation:
            self.stale += 1
        else:
            self.live_wake_at = self.sim.now
        super()._wake(generation)

# Gaps from simultaneous through draining the server to jumps that make
# the clock's ulp exceed short completion delays (the wake-up floor).
_dt = st.one_of(st.just(0.0),
                st.floats(min_value=0.0, max_value=5.0,
                          allow_nan=False, allow_infinity=False),
                st.floats(min_value=0.0, max_value=200.0,
                          allow_nan=False, allow_infinity=False),
                st.just(1e7))
# Zero work, work below the entry epsilon, just above the completion
# tolerance, and ordinary sizes.
_work = st.one_of(st.just(0.0), st.just(5e-10), st.just(3e-9),
                  st.floats(min_value=0.0, max_value=200.0,
                            allow_nan=False, allow_infinity=False))
_weight = st.one_of(st.just(1.0),
                    st.floats(min_value=0.05, max_value=8.0,
                              allow_nan=False, allow_infinity=False))
_cap = st.one_of(st.none(),
                 st.floats(min_value=0.01, max_value=40.0,
                           allow_nan=False, allow_infinity=False))
_rate = st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=60.0,
                            allow_nan=False, allow_infinity=False))

_op = st.one_of(
    st.tuples(st.just("submit"), _dt, _work, _weight, _cap),
    st.tuples(st.just("submit"), _dt, _work, st.just(1.0), st.none()),
    st.tuples(st.just("set_rate"), _dt, _rate),
    st.tuples(st.just("read"), _dt, st.sampled_from(["pop", "busy"])),
)


def _drive(server_cls, rate, ops, urgent=False):
    """Run ``ops`` against a fresh ``server_cls``; return what it observed.

    Each op's second item is the gap since the previous op, waited by a
    feeding process.  With ``urgent``, it is instead the absolute time of
    the op, reached with ``run(until=...)``: the op then runs at top level
    behind that run's URGENT stop marker, ahead of every NORMAL entry due
    at the same instant (a lone job's own completion entry among them).
    """
    sim = Simulator()
    srv = server_cls(sim, rate=rate)
    log = []
    reads = []
    jobs = []
    # Clocks of live dispatches: job outcomes and the feed's last step.
    marks = [sim.now]

    def recorder(job):
        # Completion order and outcome, keyed by the submission index.
        def record(ev):
            marks.append(sim.now)
            log.append((job.tag, ev.ok, repr(sim.now),
                        repr(job.finished_at)))
        return record

    def act(op):
        kind = op[0]
        if kind == "submit":
            _, _, work, weight, cap = op
            job = srv.submit(work, weight=weight, cap=cap, tag=len(jobs))
            jobs.append(job)
            job.done.callbacks.append(recorder(job))
        elif kind == "set_rate":
            srv.set_rate(op[2])
        else:
            value = (srv.population_integral() if op[2] == "pop"
                     else srv.busy_integral())
            reads.append((op[2], repr(value), srv.njobs))

    def feed():
        for op in ops:
            yield sim.timeout(op[1])
            act(op)
        marks.append(sim.now)

    if urgent:
        for op in ops:
            sim.run(until=op[1])
            marks.append(sim.now)  # the stop marker: a live dispatch
            act(op)
    else:
        sim.spawn(feed())
    sim.run()
    last_live = max(max(marks), srv.live_wake_at)
    if server_cls is _Production:
        # No withdrawn wake-up dispatched or moved the clock, and each
        # superseded one is exactly one cancelled entry.
        assert sim.now == last_live
        assert sim.cancelled == srv.wakeups_superseded
        assert srv.wakeups_armed == srv.woken + srv.wakeups_superseded
        armed = srv.wakeups_armed
    else:
        # The run drains the heap, so every timer the reference armed
        # was dispatched, live or stale.
        armed = srv.woken
    return {
        "log": log,
        "finished_at": [repr(job.finished_at) for job in jobs],
        "remaining": [repr(job.remaining) for job in jobs],
        "reads": reads,
        "work_completed": repr(srv.work_completed),
        "jobs_completed": srv.jobs_completed,
        # Accrued up to the last state change: a later no-op dispatch on
        # the reference moves its clock, but never its integrals.
        "pop": repr(srv._pop_integral),
        "busy": repr(srv._busy_integral),
        "accrued_to": repr(srv._last_update),
        "live_events": sim.event_count - srv.stale + srv.in_place,
        "armed": armed,
        "now": repr(last_live),
    }


def test_sub_ulp_completion_at_a_large_clock_matches_reference():
    # At t = 1e7 one ulp is ~1.9e-9 s, longer than the 3e-9 / 10 s this
    # job needs: the wake-up must be floored, not re-armed at `now`.
    _assert_same(10.0, [("submit", 1e7, 3e-9, 1.0, None),
                        ("submit", 0.0, 3e-9, 2.0, 0.5),
                        ("read", 1e-9, "pop")])


def _assert_same(rate, ops, urgent=False):
    new = _drive(_Production, rate, ops, urgent)
    old = _drive(_Reference, rate, ops, urgent)
    assert new == old
    return new


@given(rate=_rate, ops=st.lists(_op, min_size=1, max_size=40))
@settings(max_examples=400, deadline=None)
def test_matches_reference_allocator(rate, ops):
    _assert_same(rate, ops)


@given(ops=st.lists(st.tuples(st.just("submit"), _dt, _work,
                              st.just(1.0), st.none()),
                    min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_matches_reference_on_unit_jobs(ops):
    # The unit-weight, uncapped path every cluster resource takes.
    _assert_same(10.0, ops)


@pytest.mark.parametrize("gap", [0.5, 3.0])
def test_matches_reference_on_long_seeded_mix(gap):
    # gap 0.5 overloads the server (deep queues); gap 3.0 leaves it idle
    # or serving a lone job much of the time.
    rng = random.Random(20260117)
    ops = []
    for _ in range(3000):
        roll = rng.random()
        dt = 0.0 if rng.random() < 0.3 else rng.expovariate(1.0 / gap)
        if roll < 0.65:
            shaped = rng.random() < 0.25
            ops.append(("submit", dt, rng.choice([0.0, rng.uniform(0, 50)]),
                        rng.uniform(0.2, 4.0) if shaped else 1.0,
                        rng.uniform(0.5, 8.0) if shaped and rng.random() < 0.5
                        else None))
        elif roll < 0.72:
            ops.append(("set_rate", dt, rng.choice([0.0, rng.uniform(1, 30)])))
        else:
            ops.append(("read", dt, rng.choice(["pop", "busy"])))
    _assert_same(12.0, ops)


# -- lone-job programs: the station mostly idle or serving one job ---------
def test_draining_gaps_serve_every_job_alone():
    # Each submit lands after the previous job finished, so every job is
    # armed on an idle station and completed in place by its wake-up.
    ops = [("submit", 0.0 if i == 0 else 25.0, 1.0 + 13.0 * i,
            1.0 if i % 3 else 2.5, None) for i in range(12)]
    _assert_same(10.0, ops)


def test_zero_and_sub_epsilon_work_on_an_idle_station():
    _assert_same(10.0, [("submit", 0.0, 0.0, 1.0, None),
                        ("submit", 1.0, 5e-10, 1.0, None),
                        ("submit", 1.0, 3e-9, 1.0, None),
                        ("submit", 1.0, 0.0, 3.0, 0.5),
                        ("submit", 1.0, 5e-10, 0.2, 2.0),
                        ("read", 1.0, "pop"),
                        ("submit", 0.0, 4.0, 1.0, None),
                        ("submit", 0.0, 0.0, 1.0, None)])


def test_capped_lone_jobs():
    # A cap below the rate binds; one above it (by less than the
    # tolerance, and by more) leaves the full rate.
    _assert_same(10.0, [("submit", 0.0, 30.0, 1.0, 2.0),
                        ("read", 3.0, "busy"),
                        ("submit", 40.0, 30.0, 4.0, 10.0 + 1e-10),
                        ("submit", 40.0, 30.0, 0.5, 25.0),
                        ("submit", 40.0, 7.0, 1.0, 9.99)])


def test_set_rate_to_zero_and_back_with_one_job_in_service():
    _assert_same(10.0, [("submit", 0.0, 20.0, 1.0, None),
                        ("set_rate", 0.5, 0.0),
                        ("read", 1.0, "busy"),
                        ("set_rate", 2.0, 4.0),
                        ("set_rate", 1.0, 0.0),
                        ("set_rate", 0.0, 16.0),
                        ("submit", 30.0, 8.0, 2.0, 3.0),
                        ("set_rate", 1.0, 0.0),
                        ("set_rate", 3.0, 6.0)])


def test_integral_reads_while_one_job_is_in_service():
    # Each read accrues and re-arms the lone job's wake-up.
    ops = [("submit", 0.0, 30.0, 1.0, None)]
    ops += [("read", dt, kind) for dt, kind in
            [(0.3, "pop"), (0.0, "busy"), (1e-9, "pop"), (0.7, "busy"),
             (2.0 - 1e-9, "pop"), (0.0, "pop")]]
    ops += [("submit", 50.0, 5.0, 1.5, 4.0), ("read", 0.25, "busy"),
            ("read", 50.0, "pop")]
    _assert_same(10.0, ops)


# -- a lone job on its own entry, superseded -------------------------------
# At rate 10, a lone job of 20 units submitted at t=0 is due at t=2.0 on
# its own heap entry; each op below supersedes that entry before it fires.
_SUPERSEDERS = [("submit", 5.0, 1.0, None), ("set_rate", 4.0),
                ("read", "pop"), ("read", "busy")]


def _superseder(op, at):
    kind = op[0]
    if kind == "submit":
        return ("submit", at) + op[1:]
    return (kind, at, op[1])


@pytest.mark.parametrize("op", _SUPERSEDERS, ids=lambda op: op[0])
def test_lone_job_entry_superseded_before_it_is_due(op):
    ops = [("submit", 0.0, 20.0, 1.0, None), _superseder(op, 1.0),
           ("submit", 40.0, 3.0, 1.0, None)]
    _assert_same(10.0, ops)


@pytest.mark.parametrize("op", _SUPERSEDERS, ids=lambda op: op[0])
def test_lone_job_entry_superseded_at_its_due_instant(op):
    # The op runs at t=2.0 from the URGENT lane, ahead of the job's own
    # NORMAL entry: its pass completes the job, which must then succeed
    # through the lane once, without its completion hook.
    ops = [("submit", 0.0, 20.0, 1.0, None), _superseder(op, 2.0),
           ("read", 2.0, "pop"), ("submit", 50.0, 3.0, 2.0, 1.0),
           ("read", 50.3, "busy")]
    new = _assert_same(10.0, ops, urgent=True)
    assert new["log"][0][:3] == (0, True, "2.0")


def test_lone_job_programs_with_urgent_ops():
    # Lone jobs on an idle station, each op run from the URGENT lane,
    # some of them exactly at a lone job's due instant.
    ops = [("submit", 0.0, 30.0, 1.0, None), ("read", 1.0, "busy"),
           ("submit", 10.0, 30.0, 1.0, None), ("read", 13.0, "pop"),
           ("submit", 20.0, 30.0, 2.0, 5.0), ("set_rate", 26.0, 20.0),
           ("submit", 40.0, 10.0, 1.0, None),
           ("submit", 60.0, 40.0, 1.0, None), ("submit", 64.0, 0.0, 1.0,
                                                None),
           ("read", 100.0, "busy")]
    _assert_same(10.0, ops, urgent=True)


def _run_until_lone_job(server_cls):
    sim = Simulator()
    srv = server_cls(sim, rate=10.0)
    job = srv.submit(20.0, tag="lone")
    woke = []

    def waiter():
        got = yield job.done
        woke.append((got is job, sim.now))

    sim.spawn(waiter())
    sim.step()  # the waiter starts: it waits ahead of run()'s stop hook
    value = sim.run(until=job.done)
    first = (value is job, sim.now, job.finished_at, list(woke),
             srv.njobs, repr(srv.work_completed))
    later = srv.submit(5.0, tag="after")
    sim.run()
    return first, (sim.now, later.finished_at, srv.jobs_completed), sim, srv


def test_run_until_a_lone_job_on_its_own_entry():
    new_first, new_rest, sim, srv = _run_until_lone_job(_Production)
    old_first, old_rest, _, _ = _run_until_lone_job(_Reference)
    assert new_first == old_first == (True, 2.0, 2.0, [(True, 2.0)], 0,
                                      "20.0")
    assert new_rest == old_rest
    # Both jobs were lone: each was its own entry, dispatched once with
    # its waiters and completed in place.
    assert srv.woken == srv.in_place == 2 and srv.wakeups_superseded == 0
    # The waiter's start, the lone job, the later lone job.
    assert sim.event_count == 3


def test_job_left_alone_by_its_peers_is_its_own_entry():
    # At rate 10 the 10-unit job completes at t=2.0 and leaves the 30-unit
    # one alone, its waiter already attached: the pass puts the job itself
    # on the heap, with the completion hook ahead of that waiter.
    sim = Simulator()
    srv = _Production(sim, rate=10.0)
    short = srv.submit(10.0)
    long = srv.submit(30.0)
    woke = []

    def waiter():
        got = yield long
        woke.append((got is long, sim.now))

    sim.spawn(waiter())
    sim.run(until=short)
    assert srv._entry[3] is long and long.callbacks[0] is srv._on_lone_due
    sim.run()
    assert woke == [(True, 4.0)] and long.finished_at == 4.0
    assert srv.woken == 2 and srv.jobs_completed == 2
    # Left alone by its peer's completion, and read while alone.
    _assert_same(10.0, [("submit", 0.0, 10.0, 1.0, None),
                        ("submit", 0.0, 30.0, 1.0, None),
                        ("read", 3.0, "pop")])


def test_sub_ulp_lone_job_takes_the_waker():
    # At t=1e7 the clock rounds 1e7 + 0.01 down: 1.0 unit at rate 100
    # is not done at that instant, so the lone job cannot be its own
    # entry; the waker fires there and re-arms for the rest.
    sim = Simulator()
    sim.run(until=1e7)
    srv = _Production(sim, rate=100.0)
    job = srv.submit(1.0)
    assert srv._entry[3] is srv._waker and job.callbacks == []
    sim.run(until=job)
    # Two wake-ups: the rounding re-arm, then the completion.
    assert srv.woken == 2 and srv.jobs_completed == 1
    assert job.finished_at == sim.now > 1e7 + 0.0099
    _assert_same(100.0, [("submit", 1e7, 1.0, 1.0, None),
                         ("submit", 5.0, 1.0, 1.0, None),
                         ("submit", 5.0, 2.0, 1.0, None),
                         ("read", 0.005, "pop")])


_drain = st.one_of(st.just(0.0),
                   st.floats(min_value=20.0, max_value=400.0,
                             allow_nan=False, allow_infinity=False))


@given(rate=st.floats(min_value=0.5, max_value=60.0,
                      allow_nan=False, allow_infinity=False),
       ops=st.lists(st.one_of(
           st.tuples(st.just("submit"), _drain, _work, _weight, _cap),
           st.tuples(st.just("set_rate"), _dt, _rate),
           st.tuples(st.just("read"), _dt, st.sampled_from(["pop", "busy"]))),
           min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_matches_reference_on_lone_job_programs(rate, ops):
    # Long gaps between submits: the station is mostly idle or serving a
    # lone job, the path geo3's ~1.06 jobs per server takes.
    _assert_same(rate, ops)


# -- the one-pass update: queue shapes each branch of it must reproduce ----
def test_unit_jobs_finishing_together_in_a_deep_queue():
    # Five equal unit jobs among longer ones finish at one instant (one
    # wake-up completes them in list order); a later batch drains behind
    # a job that entered mid-way.
    ops = [("submit", 0.0, w, 1.0, None)
           for w in (10.0, 10.0, 30.0, 10.0, 50.0, 10.0, 10.0)]
    ops += [("submit", 1.5, 4.0, 1.0, None),
            ("submit", 0.0, 4.0, 1.0, None),
            ("read", 2.0, "pop"),
            ("submit", 40.0, 6.0, 1.0, None)]
    _assert_same(10.0, ops)


def test_shaped_job_entering_and_leaving_an_unshaped_queue():
    # A capped job joins three unit jobs and completes; a weighted one
    # joins and completes: water-filling starts and stops with them.
    ops = [("submit", 0.0, 20.0, 1.0, None),
           ("submit", 0.0, 25.0, 1.0, None),
           ("submit", 0.0, 30.0, 1.0, None),
           ("submit", 0.5, 2.0, 1.0, 1.5),
           ("read", 0.5, "busy"),
           ("submit", 2.0, 40.0, 3.0, None),
           ("submit", 1.5, 5.0, 1.0, None)]
    _assert_same(12.0, ops)
    sim = Simulator()
    srv = FairShareServer(sim, rate=12.0)
    units = [srv.submit(w) for w in (20.0, 25.0, 30.0)]
    assert srv._nshaped == 0
    capped = srv.submit(2.0, cap=1.5)
    weighted = srv.submit(40.0, weight=3.0)
    assert srv._nshaped == 2
    sim.run(until=capped)
    assert srv._nshaped == 1
    sim.run(until=weighted)
    assert srv._nshaped == 0 and srv.njobs == 3
    assert all(job.rate == 4.0 for job in units)


def test_zero_and_sub_epsilon_work_on_a_busy_station():
    # Submitted a hair before three jobs' common completion: the submit's
    # advance completes them, and the zero-work job completes behind them.
    ops = [("submit", 0.0, 10.0, 1.0, None),
           ("submit", 0.0, 10.0, 1.0, None),
           ("submit", 0.0, 10.0, 1.0, None),
           ("submit", 1.0 - 1e-12, 0.0, 1.0, None),
           ("submit", 0.0, 20.0, 1.0, None),
           ("submit", 0.0, 5e-10, 1.0, None),
           ("submit", 0.0, 0.0, 2.5, 1.0),
           ("submit", 0.5, 3e-9, 1.0, None),
           ("submit", 0.0, 0.0, 1.0, None)]
    _assert_same(30.0, ops)
    new = _drive(_Production, 30.0, ops)
    # Completion order: the three advanced jobs, then the zero-work one.
    assert [entry[0] for entry in new["log"][:4]] == [0, 1, 2, 3]


def test_integral_reads_between_busy_submits():
    ops = []
    for i in range(10):
        ops.append(("submit", 0.3, 5.0 + 3.0 * i,
                    1.0 if i % 4 else 2.0, None if i % 3 else 6.0))
        ops.append(("read", 0.0 if i % 2 else 0.1,
                    "pop" if i % 2 else "busy"))
    ops += [("read", 0.0, "pop"), ("read", 100.0, "busy")]
    _assert_same(10.0, ops)


def _resubmit_chains(server_cls):
    """Two chains of jobs on one station: each waiter, once its job is
    done, submits the next job of its chain to the same station.  The two
    first jobs finish at one wake-up, so on the production server the
    first waiter submits while the second job's dispatch is still to come
    in the same in-place pass."""
    sim = Simulator()
    srv = server_cls(sim, rate=10.0)
    log = []

    def chain(name, works):
        for i, work in enumerate(works):
            job = srv.submit(work, tag=(name, i))
            yield job.done
            log.append((name, i, repr(sim.now), repr(job.finished_at),
                        srv.njobs))

    for name, works in (("a", (10.0, 4.0, 6.0)), ("b", (10.0, 2.0, 8.0))):
        sim.spawn(chain(name, works))
    sim.run()
    return log, repr(srv.work_completed), srv, sim


def test_waiter_submitting_to_the_station_during_in_place_dispatch():
    new_log, new_work, new_srv, new_sim = _resubmit_chains(_Production)
    old_log, old_work, old_srv, old_sim = _resubmit_chains(_Reference)
    # Every job finishes at the reference clock, in the reference order.
    assert (new_log, new_work) == (old_log, old_work)
    assert [entry[:3] for entry in new_log[:2]] == [("a", 0, "2.0"),
                                                   ("b", 0, "2.0")]
    # Only the count moves: every job here is completed by a wake-up,
    # and those are dispatched in place.
    assert new_srv.in_place == new_srv.jobs_completed == 6
    assert (old_sim.event_count - old_srv.stale
            - new_sim.event_count) == new_srv.in_place
