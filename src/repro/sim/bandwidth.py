"""Fair-share (processor-sharing) service stations.

:class:`FairShareServer` models a resource with a total service *rate*
(CPU ops/s, disk bytes/s, link bytes/s) shared among all active jobs by
weighted processor sharing with optional per-job rate caps (water-filling).
It is the single modelling primitive behind SWEB's CPUs, disks, the Meiko
fat-tree ports, the NOW's shared Ethernet bus, and WAN links.

The implementation is event-driven: every membership change (a submit,
a wake-up, a rate change or an integral read) is one pass over
the jobs (:meth:`FairShareServer._pass`).  It advances every job's
remaining work by the allocation that was in force, completes the jobs
that ran out, computes the new allocation together with the earliest
completion under it and arms the station's one reusable waker event at
that instant (:meth:`~repro.sim.engine.Simulator.schedule`).  The entry
it replaces is voided with :meth:`~repro.sim.engine.Simulator.withdraw`:
it is never dispatched, and its heap key is unique, so no other event's
``(time, priority, seq)`` moves (:attr:`FairShareServer.wakeups_superseded`
counts these stale wake-ups).  Each :class:`Job` is itself the event that
fires at its completion; the jobs a wake-up completes fire in place,
inside the wake-up's own dispatch.  Membership churn is O(n) per change
and the server never scans jobs on a clock tick.

When one job is left in service (by a pass, or submitted to an idle
station, where the pass would only admit it and is skipped) and it will
be exactly done at its wake-up instant, the job itself is scheduled
there, in place of the waker, under the same heap key
(:meth:`FairShareServer._arm_lone`).  A completion hook, its first
callback, does the pass's bookkeeping and triggers it, and the kernel
runs its waiters in the same dispatch.  Any later pass withdraws that
entry and removes the hook first, so the job then completes as any
other.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from .engine import Event, Simulator, StopSimulation, Timeout, _requeue_from

__all__ = ["Job", "FairShareServer"]

_EPS = 1e-9
_INF = math.inf
_ulp = math.ulp


class Job(Event):
    """One unit of work in service at a :class:`FairShareServer`.

    A job is its own completion event: it succeeds (with the job as value)
    when service completes, so processes simply ``yield job``.  Built only by
    :meth:`FairShareServer.submit`, which sets every field itself.

    The value is read, not stored: a job holding itself would be a
    reference cycle, left for the cyclic garbage collector to free.  Only
    a failure's exception is kept (in ``_error``).
    """

    __slots__ = ("server", "work", "remaining", "weight", "cap", "tag",
                 "finished_at", "_rate", "_tol", "_shaped",
                 "_error")

    @property  # type: ignore[override]
    def _value(self) -> Any:
        """The job itself once it has succeeded, else the stored failure
        (None while pending)."""
        return self if self._ok else self._error

    @_value.setter
    def _value(self, value: Any) -> None:
        self._error = None if value is self else value

    @property
    def done(self) -> "Job":
        """The completion event: the job itself (``yield job.done``)."""
        return self

    @property
    def rate(self) -> float:
        """Service rate currently allocated to this job."""
        return self._rate

    def __repr__(self) -> str:
        return (f"<Job tag={self.tag!r} remaining={self.remaining:.3g}/"
                f"{self.work:.3g} rate={self._rate:.3g}>")


class FairShareServer:
    """Weighted processor-sharing station with per-job caps.

    Parameters
    ----------
    sim:
        The owning simulator.
    rate:
        Total service rate (work units per simulated second).
    name:
        Label used in repr and traces.
    """

    def __init__(self, sim: Simulator, rate: float, name: str = "server") -> None:
        if not 0 <= rate < _INF:
            raise ValueError(f"rate must be finite and >= 0, got {rate}")
        self.sim = sim
        self.name = name
        self._rate = float(rate)
        self._jobs: list[Job] = []
        # Jobs in service with a cap or a non-unit weight; while it is 0
        # every job gets the same share and water-filling is unnecessary.
        self._nshaped = 0
        # The armed heap entry (None when no completion is scheduled): the
        # reusable waker's, or a lone job's own.  The waker is built
        # triggered; the kernel clears its callbacks on every dispatch, so
        # _wake puts this list back.
        self._entry: Optional[list[Any]] = None
        self._wake_callbacks = [self._wake]
        self._waker = waker = Timeout(sim)
        waker.callbacks = self._wake_callbacks
        # The completion hook a lone job's own entry carries first.
        self._on_lone_due = self._lone_due
        self._last_update = sim.now
        # Integrals for load/utilisation accounting (see sample helpers).
        self._pop_integral = 0.0   # ∫ n(t) dt
        self._busy_integral = 0.0  # ∫ [n(t) > 0] dt
        self._work_done = 0.0      # total work completed
        self._jobs_completed = 0
        #: Wake-ups armed since construction, the lone jobs' own entries
        #: included (observation only).
        self.wakeups_armed = 0
        #: Armed wake-ups replaced before they fired, each withdrawn with
        #: Simulator.withdraw (observation only).
        self.wakeups_superseded = 0

    # -- public API ----------------------------------------------------------
    @property
    def rate(self) -> float:
        """Total service rate."""
        return self._rate

    @property
    def njobs(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    @property
    def jobs(self) -> tuple[Job, ...]:
        """Snapshot of the jobs currently in service."""
        return tuple(self._jobs)

    @property
    def work_completed(self) -> float:
        """Total work units served since construction."""
        return self._work_done

    @property
    def jobs_completed(self) -> int:
        """Number of jobs fully served since construction."""
        return self._jobs_completed

    def submit(self, work: float, weight: float = 1.0,
               cap: Optional[float] = None, tag: Any = None) -> Job:
        """Enter a job of ``work`` units; the returned job fires at completion.

        ``cap`` bounds the rate this single job may receive (e.g. a WAN
        client whose modem is slower than the server's link).
        """
        # Chained comparisons: NaN fails every one of them, so a NaN (or
        # infinite) job can never enter and strand the station.
        if not 0 <= work < _INF:
            raise ValueError(f"work must be finite and >= 0, got {work}")
        if not 0 < weight < _INF:
            raise ValueError(f"weight must be finite and > 0, got {weight}")
        if cap is not None and not 0 < cap < _INF:
            raise ValueError(f"cap must be finite and > 0, got {cap}")
        # Built in place, as Simulator.timeout builds a Timeout.
        sim = self.sim
        job = Job.__new__(Job)
        job.sim = sim
        job.callbacks = []
        job._error = None
        job._ok = None
        job._state = 0  # Event.PENDING
        job._defused = False
        job.server = self
        job.work = job.remaining = work = float(work)
        job.weight = weight = float(weight)
        job.cap = cap
        job.tag = tag
        job.finished_at = None
        job._rate = 0.0
        # Remaining work at or below which the job counts as finished.
        job._tol = _EPS * (work if work > 1.0 else 1.0)
        # Capped or weighted: its share needs water-filling.
        job._shaped = cap is not None or weight != 1.0
        jobs = self._jobs
        if jobs or work <= job._tol:
            self._pass(job)
            return job
        # An idle station, a job with work: the pass would advance no job
        # and complete none, so it comes down to admitting this one.
        self._last_update = sim.now
        jobs.append(job)
        if job._shaped:
            self._nshaped += 1
        self._arm_lone(job)
        return job

    def set_rate(self, rate: float) -> None:
        """Change the total service rate (e.g. node slowdown)."""
        if not 0 <= rate < _INF:
            raise ValueError(f"rate must be finite and >= 0, got {rate}")
        # Progress up to now accrues at the rates allocated before the
        # change (each job's own rate), so the new total can go in first.
        self._rate = float(rate)
        self._pass(None)

    # -- load accounting ------------------------------------------------------
    def population_integral(self) -> float:
        """∫ n(t) dt up to now; diff two readings for a window average."""
        self._pass(None)
        return self._pop_integral

    def busy_integral(self) -> float:
        """∫ [n(t) > 0] dt up to now (busy time)."""
        self._pass(None)
        return self._busy_integral

    # -- internals -------------------------------------------------------------
    def _lone_due(self, job: Job) -> None:
        """First callback of a lone job's own entry: its completion is due.

        The pass a wake-up would run now, cut to the one job it completes,
        with the same float operations in the same order; then the job
        triggers, and the kernel runs its waiters in this same dispatch."""
        self._entry = None
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        self._pop_integral += dt
        self._busy_integral += dt
        step = job._rate * dt
        rem = job.remaining
        if step > rem:
            step = rem
        self._work_done += step
        self._jobs.clear()
        if job._shaped:
            self._nshaped -= 1
        job.remaining = 0.0
        job._rate = 0.0
        job.finished_at = now
        self._jobs_completed += 1
        job._ok = True
        job._state = 1  # Event.TRIGGERED

    def _wake(self, waker: Event) -> None:
        """Callback of the armed waker: the earliest completion is due.

        The jobs it completes are dispatched in place, in list order, once
        the pass has re-armed the station (a waiter may submit to it),
        with :meth:`Event.settle`'s stop rule; if a callback raises
        anything else, the rest succeed."""
        self._entry = None
        waker.callbacks = self._wake_callbacks
        finished: list[Job] = []
        self._pass(None, finished)
        for i, job in enumerate(finished):
            callbacks, job.callbacks = job.callbacks, None
            try:
                for cb in callbacks:
                    cb(job)
            except StopSimulation:
                _requeue_from(job, callbacks, cb)
                continue
            except BaseException:
                for rest in finished[i + 1:]:
                    rest._state = 0  # Event.PENDING: succeed() queues it
                    rest.succeed(rest)
                raise
            job._state = 2  # Event.PROCESSED

    def _pass(self, entering: Optional[Job],
              finished: Optional[list[Job]] = None) -> None:
        """Bring the station to ``now`` after a membership change, in one pass.

        In order: withdraw the armed entry (a lone job's own entry loses
        its completion hook first); advance every job by the rate it held
        since the last change; admit ``entering``; complete, in list
        order, every job out of work (so a zero-work entrant completes
        behind the jobs the advance finished); then give every job its new
        rate and arm the waker at the earliest completion under those rates
        (or, for a lone job exactly done then, the job itself).
        A completed job succeeds, or is triggered onto ``finished`` if given.
        A lone job and a queue of unit-weight, uncapped jobs are branches
        of the allocation; water-filling runs only while a capped or
        weighted job is in service.
        """
        sim = self.sim
        entry = self._entry
        if entry is not None:
            # Superseded: withdrawn, never dispatched.  Its heap key is
            # unique, so no other event's order moves.  A lone job loses
            # its hook before it can complete (or fail) through a lane.
            self._entry = None
            event = entry[3]
            if event is not self._waker:
                del event.callbacks[0]
            sim.withdraw(entry)
            self.wakeups_superseded += 1
        now = sim.now
        jobs = self._jobs
        done = False
        dt = now - self._last_update
        if dt > 0:
            self._last_update = now
            n = len(jobs)
            if n:
                self._pop_integral += n * dt
                self._busy_integral += dt
                work_done = self._work_done
                for job in jobs:
                    step = job._rate * dt
                    rem = job.remaining
                    if step > rem:
                        step = rem
                    job.remaining = rem = rem - step
                    work_done += step
                    if rem <= job._tol:
                        done = True
                self._work_done = work_done
        if entering is not None:
            jobs.append(entering)
            if entering._shaped:
                self._nshaped += 1
            # remaining <= _tol is remaining <= _EPS for a fresh job:
            # _tol is _EPS up to one unit of work, and below the work above.
            if entering.remaining <= entering._tol:
                done = True
        if done:
            keep = []
            for job in jobs:
                if job.remaining <= job._tol:
                    if job._shaped:
                        self._nshaped -= 1
                    job.remaining = 0.0
                    job._rate = 0.0
                    job.finished_at = now
                    self._jobs_completed += 1
                    if finished is None:
                        job.succeed(job)
                    else:
                        job._ok = True
                        job._state = 1  # Event.TRIGGERED
                        finished.append(job)
                else:
                    keep.append(job)
            jobs[:] = keep

        n = len(jobs)
        if not n:
            return
        if n == 1:
            self._arm_lone(jobs[0])
            return
        total = self._rate
        if not self._nshaped:
            # Unit weights, no caps: the weight sum is exactly float(n)
            # and total * 1.0 / n is total / n, so every job gets one
            # rate; division by a positive constant preserves order, so
            # the earliest completion is the least remaining work over
            # that rate.
            if total <= _EPS:
                for job in jobs:
                    job._rate = 0.0
                return
            rate = total / n
            low = _INF
            for job in jobs:
                job._rate = rate
                rem = job.remaining
                if rem < low:
                    low = rem
            if rate <= _EPS:
                return
            soonest = low / rate
        else:
            pending = list(jobs)
            # Fix capped jobs whose fair share exceeds their cap, iteratively.
            for job in pending:
                job._rate = 0.0
            while pending and total > _EPS:
                wsum = sum(j.weight for j in pending)
                capped = [j for j in pending
                          if j.cap is not None
                          and total * j.weight / wsum > j.cap + _EPS]
                if not capped:
                    for j in pending:
                        j._rate = total * j.weight / wsum
                    break
                for j in capped:
                    j._rate = j.cap
                    total -= j.cap
                    pending.remove(j)
                if total < 0.0:
                    total = 0.0
            soonest = _INF
            for job in jobs:
                rate = job._rate
                if rate > _EPS:
                    t = job.remaining / rate
                    if t < soonest:
                        soonest = t
        if soonest < _INF:
            # Floor the delay at the clock's float resolution: a delay
            # below one ulp of `now` would not advance time, and the
            # wake-up would re-arm itself forever (zero-dt livelock).  The
            # floor also keeps every wake-up strictly in the future, as
            # Simulator.schedule requires.
            floor = 4.0 * _ulp(now if now > 1.0 else 1.0)
            self._entry = sim.schedule(
                self._waker, now + (soonest if soonest > floor else floor))
            self.wakeups_armed += 1

    def _arm_lone(self, job: Job) -> None:
        """Give the one job in service its rate and arm its completion.

        Water-filling ends on its first round: the full rate (as
        total * w / w, bit for bit), or the cap if lower.  When the job
        will be exactly done at its wake-up instant (the completion test
        the wake-up's pass would make there), the job itself is scheduled
        in place of the waker, under the same heap key, with its
        completion hook ahead of any waiter already attached."""
        total = self._rate
        if total > _EPS:
            w = job.weight
            rate = total * w / w
            cap = job.cap
            if cap is not None and rate > cap + _EPS:
                rate = cap
        else:
            rate = 0.0
        job._rate = rate
        if rate <= _EPS:
            return
        sim = self.sim
        now = sim.now
        rem = job.remaining
        soonest = rem / rate
        # The wake-up instant, floored as in _pass.
        floor = 4.0 * _ulp(now if now > 1.0 else 1.0)
        when = now + (soonest if soonest > floor else floor)
        self.wakeups_armed += 1
        step = rate * (when - now)
        if step > rem:
            step = rem
        if rem - step <= job._tol:
            job.callbacks.insert(0, self._on_lone_due)
            self._entry = sim.schedule(job, when)
        else:
            # Rounding leaves work over at `when`: the waker re-arms.
            self._entry = sim.schedule(self._waker, when)

    def __repr__(self) -> str:
        return f"<FairShareServer {self.name!r} rate={self._rate:.3g} njobs={self.njobs}>"
