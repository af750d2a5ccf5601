"""Property-based tests (hypothesis) for the simulation kernel.

Invariants checked:

* event processing is globally time-ordered;
* identical schedules replay identically (determinism);
* the fair-share server conserves work and is never idle while work is
  pending (work conservation).
"""

import math

from hypothesis import given, settings, strategies as st

from repro.sim import FairShareServer, Simulator

delays = st.lists(st.floats(min_value=0.0, max_value=50.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=20)


@given(delays)
@settings(max_examples=60, deadline=None)
def test_events_fire_in_time_order(ds):
    sim = Simulator()
    fired = []

    def proc(d):
        yield sim.timeout(d)
        fired.append(sim.now)

    for d in ds:
        sim.spawn(proc(d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(ds)


@given(delays)
@settings(max_examples=40, deadline=None)
def test_replay_determinism(ds):
    def run_once():
        sim = Simulator()
        fired = []

        def proc(tag, d):
            yield sim.timeout(d)
            fired.append((sim.now, tag))

        for i, d in enumerate(ds):
            sim.spawn(proc(i, d))
        sim.run()
        return fired, sim.event_count

    assert run_once() == run_once()


work_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),   # submit time
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False), # work
    ),
    min_size=1, max_size=12,
)


@given(work_lists, st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_fair_share_conserves_work(jobs, rate):
    sim = Simulator()
    srv = FairShareServer(sim, rate=rate)
    completions = []

    def go(when, work):
        yield sim.timeout(when)
        job = srv.submit(work)
        yield job.done
        completions.append(sim.now)

    for when, work in jobs:
        sim.spawn(go(when, work))
    sim.run()
    total_work = sum(w for _, w in jobs)
    assert len(completions) == len(jobs)
    assert srv.njobs == 0
    assert math.isclose(srv.work_completed, total_work, rel_tol=1e-6)
    # Work conservation: busy time == total work / rate (single server,
    # never idle while jobs are present).
    assert math.isclose(srv.busy_integral(), total_work / rate, rel_tol=1e-6)


@given(work_lists, st.floats(min_value=0.5, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_fair_share_completion_never_before_unloaded_time(jobs, rate):
    """No job can finish faster than running alone at full rate."""
    sim = Simulator()
    srv = FairShareServer(sim, rate=rate)
    spans = []

    def go(when, work):
        yield sim.timeout(when)
        start = sim.now
        job = srv.submit(work)
        yield job.done
        spans.append((sim.now - start, work / rate))

    for when, work in jobs:
        sim.spawn(go(when, work))
    sim.run()
    for elapsed, floor in spans:
        assert elapsed >= floor - 1e-6
