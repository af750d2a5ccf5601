"""Fair-share (processor-sharing) service stations.

:class:`FairShareServer` models a resource with a total service *rate*
(CPU ops/s, disk bytes/s, link bytes/s) shared among all active jobs by
weighted processor sharing with optional per-job rate caps (water-filling).
It is the single modelling primitive behind SWEB's CPUs, disks, the Meiko
fat-tree ports, the NOW's shared Ethernet bus, and WAN links.

The implementation is event-driven: whenever the set of active jobs (or the
rate) changes, every job's remaining work is advanced using the allocation
that was in force, then one pass computes the new allocation together with
the earliest completion under it and re-arms the server's single wake-up
timer (a job alone in service, the common case on a lightly loaded
node, is armed and completed without the general pass).  The timer it
replaces is withdrawn with
:meth:`~repro.sim.engine.Simulator.cancel`: it is never dispatched, and
its heap key is unique, so no other event's ``(time, priority, seq)``
moves (:attr:`FairShareServer.wakeups_superseded` counts these stale
wake-ups).  Each :class:`Job` is itself the event that fires at its
completion.
Membership churn is O(n) per change and the server never scans jobs on a
clock tick.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from .engine import Event, Simulator, Timeout

__all__ = ["Job", "FairShareServer"]

_EPS = 1e-9
_INF = math.inf
_ulp = math.ulp


class Job(Event):
    """One unit of work in service at a :class:`FairShareServer`.

    A job is its own completion event: it succeeds (with the job as value)
    when service completes and fails with ``InterruptedError`` when it is
    cancelled, so processes simply ``yield job``.
    """

    __slots__ = ("server", "work", "remaining", "weight", "cap", "tag",
                 "submitted_at", "finished_at", "_rate", "_tol", "_shaped")

    def __init__(self, server: "FairShareServer", work: float, weight: float,
                 cap: Optional[float], tag: Any) -> None:
        sim = server.sim
        Event.__init__(self, sim)
        self.server = server
        self.work = self.remaining = work = float(work)
        self.weight = float(weight)
        self.cap = cap
        self.tag = tag
        self.submitted_at = sim._now
        self.finished_at: Optional[float] = None
        self._rate = 0.0  # current allocated rate
        # Remaining work at or below which the job counts as finished.
        self._tol = _EPS * (work if work > 1.0 else 1.0)
        # Capped or weighted: its share needs water-filling.
        self._shaped = cap is not None or self.weight != 1.0

    @property
    def done(self) -> "Job":
        """The completion event: the job itself (``yield job.done``)."""
        return self

    @property
    def progress(self) -> float:
        """Fraction of the work completed, in [0, 1]."""
        if self.work <= 0:
            return 1.0
        return 1.0 - self.remaining / self.work

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
        # The one armed wake-up (None when no completion is scheduled) and
        # the bound method every arm attaches to it.
        self._timer: Optional[Timeout] = None
        self._on_wake = self._wake
        self._last_update = sim.now
        # Integrals for load/utilisation accounting (see sample helpers).
        self._pop_integral = 0.0   # ∫ n(t) dt
        self._busy_integral = 0.0  # ∫ [n(t) > 0] dt
        self._work_done = 0.0      # total work completed
        self._jobs_completed = 0
        #: Wake-up timers armed since construction (observation only).
        self.wakeups_armed = 0
        #: Armed wake-ups replaced before they fired, each withdrawn with
        #: Simulator.cancel (observation only).
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
        jobs = self._jobs
        idle = not jobs
        if idle:
            # Idle server: nothing accrued, only the accounting clock moves.
            self._last_update = self.sim._now
        else:
            self._advance()
        job = Job(self, work, weight, cap, tag)
        if job.remaining <= _EPS:
            self._finish(job)
        else:
            jobs.append(job)
            if job._shaped:
                self._nshaped += 1
        if not idle:
            self._reallocate()
        elif jobs:
            # No wake-up is armed on an idle station (every path that
            # empties it disarms it), so the lone job is armed directly.
            self._serve_alone(job)
        return job

    def cancel(self, job: Job) -> None:
        """Abort a job; the job's event fails with ``InterruptedError``."""
        self._advance()
        if job in self._jobs:
            self._jobs.remove(job)
            if job._shaped:
                self._nshaped -= 1
            job._rate = 0.0
            job.fail(InterruptedError(f"job {job.tag!r} cancelled"))
            job.defuse()
        self._reallocate()

    def set_rate(self, rate: float) -> None:
        """Change the total service rate (e.g. node slowdown)."""
        if not 0 <= rate < _INF:
            raise ValueError(f"rate must be finite and >= 0, got {rate}")
        self._advance()
        self._rate = float(rate)
        self._reallocate()

    # -- load accounting ------------------------------------------------------
    def population_integral(self) -> float:
        """∫ n(t) dt up to now; diff two readings for a window average."""
        self._advance()
        self._reallocate()
        return self._pop_integral

    def busy_integral(self) -> float:
        """∫ [n(t) > 0] dt up to now (busy time)."""
        self._advance()
        self._reallocate()
        return self._busy_integral

    # -- internals -------------------------------------------------------------
    def _advance(self) -> None:
        """Apply progress accrued since the last state change."""
        now = self.sim._now
        dt = now - self._last_update
        if dt <= 0:
            # Nothing can have progressed (or finished: every path that
            # changes `remaining` runs the completion scan below itself).
            return
        self._last_update = now
        jobs = self._jobs
        n = len(jobs)
        if not n:
            return
        self._pop_integral += n * dt
        self._busy_integral += dt
        work_done = self._work_done
        any_done = False
        for job in jobs:
            step = job._rate * dt
            rem = job.remaining
            if step > rem:
                step = rem
            job.remaining = rem = rem - step
            work_done += step
            if rem <= job._tol:
                any_done = True
        self._work_done = work_done
        # Complete, in list order, every job that ran out of work exactly now.
        if any_done:
            keep = []
            for job in jobs:
                if job.remaining <= job._tol:
                    if job._shaped:
                        self._nshaped -= 1
                    self._finish(job)
                else:
                    keep.append(job)
            jobs[:] = keep

    def _finish(self, job: Job) -> None:
        job.remaining = 0.0
        job._rate = 0.0
        job.finished_at = self.sim._now
        self._jobs_completed += 1
        job.succeed(job)

    def _reallocate(self) -> None:
        """Water-filling rate allocation and the next wake-up, in one pass.

        Disarms the current wake-up, assigns every job its rate, finds the
        earliest completion under the new rates and arms one timer for it.
        """
        timer = self._timer
        if timer is not None:
            # Superseded: withdrawn, never dispatched.  Its heap key is
            # unique, so no other event's order moves.
            self.sim.cancel(timer)
            self._timer = None
            self.wakeups_superseded += 1
        jobs = self._jobs
        if not jobs:
            return
        if len(jobs) == 1:
            self._serve_alone(jobs[0])
            return
        total = self._rate
        if not self._nshaped:
            # Unit weights, no caps (the common case): the weight sum is
            # exactly float(n) and total * 1.0 / n is total / n, so every
            # job gets one rate; division by a positive constant preserves
            # order, so the earliest completion is the least remaining
            # work over that rate.
            if total <= _EPS:
                for j in jobs:
                    j._rate = 0.0
                return
            rate = total / len(jobs)
            low = _INF
            for j in jobs:
                j._rate = rate
                rem = j.remaining
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
            for j in jobs:
                rate = j._rate
                if rate > _EPS:
                    t = j.remaining / rate
                    if t < soonest:
                        soonest = t
        if soonest < _INF:
            self._arm(soonest)

    def _serve_alone(self, job: Job) -> None:
        """Give a job alone in service its rate and arm its completion.

        Water-filling ends on its first round: the full rate (as
        total * w / w, bit for bit), or its cap if lower.  The caller has
        disarmed any earlier wake-up.
        """
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
        if rate > _EPS:
            soonest = job.remaining / rate
            if soonest < _INF:
                self._arm(soonest)

    def _arm(self, delay: float) -> None:
        """Arm the station's one wake-up ``delay`` seconds from now."""
        # Floor the delay at the clock's float resolution: a delay below
        # one ulp of `now` would not advance time, and the wake-up would
        # re-arm itself forever (zero-dt livelock).
        sim = self.sim
        now = sim._now
        floor = 4.0 * _ulp(now if now > 1.0 else 1.0)
        timer = sim.timeout(delay if delay > floor else floor)
        timer.callbacks.append(self._on_wake)
        self._timer = timer
        self.wakeups_armed += 1

    def _wake(self, timer: Event) -> None:
        """Callback of the armed wake-up: the earliest completion is due."""
        self._timer = None
        jobs = self._jobs
        if len(jobs) != 1:
            self._advance()
            self._reallocate()
            return
        # A lone job: _advance then _reallocate, with the same float
        # operations in the same order, minus the list rebuild and the
        # empty reallocation after it completes.
        job = jobs[0]
        now = self.sim._now
        dt = now - self._last_update
        if dt > 0:
            self._last_update = now
            self._pop_integral += dt  # n * dt with n == 1: exactly dt
            self._busy_integral += dt
            step = job._rate * dt
            rem = job.remaining
            if step > rem:
                step = rem
            job.remaining = rem = rem - step
            self._work_done += step
            if rem <= job._tol:
                jobs.clear()
                if job._shaped:
                    self._nshaped -= 1
                self._finish(job)
                return
        self._serve_alone(job)

    def __repr__(self) -> str:
        return f"<FairShareServer {self.name!r} rate={self._rate:.3g} njobs={self.njobs}>"
