"""Unit tests for the fair-share server (repro.sim.bandwidth)."""

import gc
import math

import pytest

from repro.sim import FairShareServer, Simulator


def run_transfers(rate, submissions):
    """Helper: submissions = [(t_submit, work)], returns completion times."""
    sim = Simulator()
    srv = FairShareServer(sim, rate=rate)
    finished = {}

    def submit_at(tag, when, work):
        yield sim.timeout(when)
        job = srv.submit(work, tag=tag)
        yield job.done
        finished[tag] = sim.now

    for i, (when, work) in enumerate(submissions):
        sim.spawn(submit_at(i, when, work))
    sim.run()
    return finished


def test_single_job_service_time():
    finished = run_transfers(rate=10.0, submissions=[(0.0, 100.0)])
    assert finished[0] == pytest.approx(10.0)


def test_two_equal_jobs_share_rate():
    # Both get rate/2 until done: 100 units at 5/s each -> both at t=20.
    finished = run_transfers(rate=10.0, submissions=[(0.0, 100.0), (0.0, 100.0)])
    assert finished[0] == pytest.approx(20.0)
    assert finished[1] == pytest.approx(20.0)


def test_late_arrival_slows_first_job():
    # Job0: alone 0..5 (50 done), then shares: 50 left at 5/s -> +10 => t=15.
    # Job1: 100 units, shares from t=5 at 5/s for 10s (50), then alone at
    # 10/s for 5s => t = 5 + 10 + 5 = 20.
    finished = run_transfers(rate=10.0, submissions=[(0.0, 100.0), (5.0, 100.0)])
    assert finished[0] == pytest.approx(15.0)
    assert finished[1] == pytest.approx(20.0)


def test_weighted_sharing():
    sim = Simulator()
    srv = FairShareServer(sim, rate=12.0)
    done = {}

    def go(tag, work, weight):
        job = srv.submit(work, weight=weight, tag=tag)
        yield job.done
        done[tag] = sim.now

    # weight 2 gets 8/s, weight 1 gets 4/s while both active.
    sim.spawn(go("heavy", 80.0, 2.0))
    sim.spawn(go("light", 80.0, 1.0))
    sim.run()
    # heavy: 80/8 = 10s. light: 40 done by t=10, then alone 40 @ 12/s.
    assert done["heavy"] == pytest.approx(10.0)
    assert done["light"] == pytest.approx(10.0 + 40.0 / 12.0)


def test_per_job_cap_limits_rate():
    sim = Simulator()
    srv = FairShareServer(sim, rate=100.0)
    done = {}

    def go(tag, work, cap=None):
        job = srv.submit(work, cap=cap, tag=tag)
        yield job.done
        done[tag] = sim.now

    sim.spawn(go("capped", 100.0, cap=10.0))
    sim.run()
    assert done["capped"] == pytest.approx(10.0)


def test_cap_surplus_goes_to_uncapped_job():
    sim = Simulator()
    srv = FairShareServer(sim, rate=100.0)
    done = {}

    def go(tag, work, cap=None):
        job = srv.submit(work, cap=cap, tag=tag)
        yield job.done
        done[tag] = sim.now

    # capped job gets 10, uncapped gets the remaining 90.
    sim.spawn(go("capped", 100.0, cap=10.0))
    sim.spawn(go("free", 90.0))
    sim.run()
    assert done["free"] == pytest.approx(1.0)
    assert done["capped"] == pytest.approx(10.0)


def test_zero_work_completes_immediately():
    sim = Simulator()
    srv = FairShareServer(sim, rate=5.0)
    job = srv.submit(0.0, tag="empty")
    assert job.done.triggered
    sim.run()
    assert job.remaining == 0.0


def test_set_rate_mid_service():
    sim = Simulator()
    srv = FairShareServer(sim, rate=10.0)
    done = {}

    def go():
        job = srv.submit(100.0, tag="x")
        yield job.done
        done["x"] = sim.now

    def slow_down():
        yield sim.timeout(5.0)
        srv.set_rate(5.0)

    sim.spawn(go())
    sim.spawn(slow_down())
    sim.run()
    # 50 done at t=5, remaining 50 at 5/s -> t=15.
    assert done["x"] == pytest.approx(15.0)


def test_zero_rate_stalls_until_rate_restored():
    sim = Simulator()
    srv = FairShareServer(sim, rate=0.0)
    done = {}

    def go():
        job = srv.submit(10.0, tag="x")
        yield job.done
        done["x"] = sim.now

    def restore():
        yield sim.timeout(7.0)
        srv.set_rate(10.0)

    sim.spawn(go())
    sim.spawn(restore())
    sim.run()
    assert done["x"] == pytest.approx(8.0)


def test_work_conservation_accounting():
    sim = Simulator()
    srv = FairShareServer(sim, rate=10.0)

    def go(work):
        job = srv.submit(work)
        yield job.done

    for w in (10.0, 20.0, 30.0):
        sim.spawn(go(w))
    sim.run()
    assert srv.work_completed == pytest.approx(60.0)
    assert srv.jobs_completed == 3
    assert srv.njobs == 0


def test_busy_and_population_integrals():
    sim = Simulator()
    srv = FairShareServer(sim, rate=10.0)

    def go():
        job = srv.submit(100.0)
        yield job.done

    sim.spawn(go())
    sim.run()
    assert srv.busy_integral() == pytest.approx(10.0)
    assert srv.population_integral() == pytest.approx(10.0)


def test_invalid_args_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        FairShareServer(sim, rate=-1.0)
    srv = FairShareServer(sim, rate=1.0)
    with pytest.raises(ValueError):
        srv.submit(-1.0)
    with pytest.raises(ValueError):
        srv.submit(1.0, weight=0.0)
    with pytest.raises(ValueError):
        srv.submit(1.0, cap=0.0)
    with pytest.raises(ValueError):
        srv.set_rate(-2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_arguments_rejected(bad):
    sim = Simulator()
    with pytest.raises(ValueError):
        FairShareServer(sim, rate=bad)
    srv = FairShareServer(sim, rate=10.0)
    with pytest.raises(ValueError):
        srv.submit(bad)
    with pytest.raises(ValueError):
        srv.submit(1.0, weight=bad)
    with pytest.raises(ValueError):
        srv.submit(1.0, cap=bad)
    with pytest.raises(ValueError):
        srv.set_rate(bad)
    # Nothing entered and the rate is untouched.
    assert srv.njobs == 0 and srv.rate == 10.0
    # A busy station rejects them too.
    srv.submit(5.0)
    with pytest.raises(ValueError):
        srv.submit(bad)
    with pytest.raises(ValueError):
        srv.set_rate(bad)
    sim.run()
    assert srv.njobs == 0 and srv.jobs_completed == 1
    assert sim.now == pytest.approx(0.5)


def test_nan_weight_cannot_strand_a_healthy_neighbour():
    sim = Simulator()
    srv = FairShareServer(sim, rate=10.0)
    healthy = srv.submit(10.0)
    with pytest.raises(ValueError):
        srv.submit(10.0, weight=math.nan)
    sim.run()
    assert healthy.processed and healthy.finished_at == pytest.approx(1.0)
    assert srv.njobs == 0


def test_many_staggered_jobs_total_time_matches_total_work():
    # Regardless of interleaving, the server is busy exactly
    # total_work / rate seconds when jobs overlap completely back-to-back.
    sim = Simulator()
    srv = FairShareServer(sim, rate=2.0)
    finished = []

    def go(delay, work):
        yield sim.timeout(delay)
        job = srv.submit(work)
        yield job.done
        finished.append(sim.now)

    # All submitted at t=0: the last completion is total_work/rate.
    for work in (2.0, 4.0, 6.0, 8.0):
        sim.spawn(go(0.0, work))
    sim.run()
    assert max(finished) == pytest.approx(20.0 / 2.0)


def test_job_is_its_own_completion_event():
    sim = Simulator()
    srv = FairShareServer(sim, rate=4.0)
    job = srv.submit(8.0, tag="self")
    assert job.done is job
    assert sim.run(until=job) is job
    assert sim.now == pytest.approx(2.0)
    assert job.ok and job.finished_at == sim.now


# -- a job's value is the job itself, never stored as a self-reference ------
def _no_self_reference(job):
    return not any(ref is job for ref in gc.get_referents(job))


def test_job_value_to_a_waiter_attached_before_completion():
    sim = Simulator()
    srv = FairShareServer(sim, rate=10.0)
    lone = srv.submit(10.0)                      # its own heap entry
    pair = srv.submit(20.0), srv.submit(20.0)    # completed by one wake-up
    got = []

    def waiter(job):
        got.append(((yield job) is job, sim.now))

    for job in (lone, *pair):
        sim.spawn(waiter(job))
    sim.run()
    assert got == [(True, 3.0), (True, 5.0), (True, 5.0)]
    for job in (lone, *pair):
        assert job.processed and job.value is job and _no_self_reference(job)


def test_job_value_to_a_late_yield_and_to_run_until():
    sim = Simulator()
    srv = FairShareServer(sim, rate=2.0)
    job = srv.submit(4.0)
    assert sim.run(until=job) is job and sim.now == 2.0
    got = []

    def late():
        got.append((yield job))

    sim.spawn(late())
    sim.run()
    assert got == [job] and got[0] is job
    assert sim.run(until=job) is job             # already processed
    assert _no_self_reference(job)


class _CountingServer(FairShareServer):
    """Counts the wake-ups that reach the server's code, and the jobs they
    complete (dispatched in place: never counted by the kernel).  A lone
    job's own entry is a wake-up that completes that one job in place."""

    def __init__(self, *args, **kwargs):
        self.fired = 0
        self.in_place = 0
        super().__init__(*args, **kwargs)

    def _wake(self, timer):
        self.fired += 1
        before = self.jobs_completed
        super()._wake(timer)
        self.in_place += self.jobs_completed - before

    def _lone_due(self, job):
        self.fired += 1
        self.in_place += 1
        super()._lone_due(job)


def _pending(srv):
    return 0 if srv._entry is None else 1


def test_wakeup_counters_balance_and_stale_entries_stay_inert():
    sim = Simulator()
    srv = _CountingServer(sim, rate=10.0)
    feeders = 0
    superseded_timers = []

    def submit_at(when, work, cap=None):
        nonlocal feeders
        feeders += 1
        sim.timeout(when).callbacks.append(
            lambda ev: srv.submit(work, cap=cap))

    def read_at(when):
        nonlocal feeders
        feeders += 1

        def read(ev):
            before = srv._entry
            armed = None if before is None else before[3]
            withdrawn = sim.cancelled
            srv.population_integral()
            if before is not None:
                # Withdrawn from the kernel: the entry holds no live event
                # any more, and counts as one cancelled entry.  The event
                # it held (the waker or a lone job) is left pending.
                assert before[3] is not armed
                assert before[3].callbacks is None
                assert before is not srv._entry
                assert armed.callbacks is not None
                assert sim.cancelled == withdrawn + 1
                superseded_timers.append(before)
        sim.timeout(when).callbacks.append(read)

    for i in range(12):
        submit_at(0.5 * i, 4.0 + i, cap=8.0 if i % 4 == 0 else None)
        read_at(0.5 * i + 0.25)
    checkpoints = [1.0, 2.6, 4.1, 30.0]
    for t in checkpoints:
        sim.run(until=t)
        assert srv.wakeups_armed == (srv.fired + srv.wakeups_superseded
                                     + _pending(srv))
    # Every read over a live timer superseded it.
    assert superseded_timers
    assert srv.njobs == 0 and _pending(srv) == 0
    assert srv.wakeups_superseded >= len(superseded_timers)
    # Every superseded timer was withdrawn, and only the fired ones were
    # dispatched: the kernel saw feeders + the job completions that were
    # not dispatched in place by a wake-up + fired timers + the
    # checkpoints' stop events.
    assert sim.cancelled == srv.wakeups_superseded
    assert 0 < srv.in_place <= srv.jobs_completed
    assert sim.event_count == (feeders + srv.jobs_completed - srv.in_place
                               + srv.fired + len(checkpoints))


def test_superseded_wakeup_dispatch_runs_no_server_code():
    sim = Simulator()
    srv = _CountingServer(sim, rate=1.0)
    first = srv.submit(10.0)
    stale = srv._entry
    # A lone job on an idle station is its own wake-up entry.
    assert stale[3] is first and first.callbacks
    srv.submit(10.0)  # re-arms: the first entry is superseded
    assert srv.wakeups_armed == 2 and srv.wakeups_superseded == 1
    assert stale is not srv._entry and stale[3].callbacks is None
    # The job lost its completion hook with the entry.
    assert first.callbacks == [] and not first.triggered
    assert sim.cancelled == 1
    sim.run(until=10.0 + 1e-9)  # past the stale entry's original due time
    assert srv.fired == 0
    assert srv.njobs == 2
    # Only the stop marker was dispatched: the withdrawn entry never was.
    assert sim.event_count == 1 and not first.processed
    sim.run()
    assert srv.fired == 1 and srv.wakeups_superseded == 1
    assert srv.jobs_completed == 2
    # Both jobs finish at the wake-up and are dispatched in place.
    assert srv.in_place == 2
    assert sim.event_count == 1 + srv.fired


def test_run_until_a_job_finishing_with_others_at_one_wake_up():
    # Both jobs finish at the wake-up at t=2 and are dispatched in place,
    # as Event.settle dispatches.  The hook of run(until=first) puts the
    # first job back on the lane from that hook on, so the second job's
    # waiter still wakes inside the wake-up's dispatch; the stop takes
    # effect when the first job dispatches from the lane, and the waiter
    # that attached to it after the hook still wakes.
    sim = Simulator()
    srv = FairShareServer(sim, rate=10.0)
    first, second = srv.submit(10.0), srv.submit(10.0)
    woke = []

    def waiter(name, job):
        got = yield job
        woke.append((name, got is job, sim.now))

    sim.spawn(waiter("first", first))
    sim.spawn(waiter("second", second))
    assert sim.run(until=first) is first
    assert sim.now == 2.0 and first.processed and second.processed
    assert woke == [("second", True, 2.0), ("first", True, 2.0)]
    # Two process starts, the wake-up and the first job's lane entry.
    assert sim.event_count == 4
    sim.run()
    assert len(woke) == 2
