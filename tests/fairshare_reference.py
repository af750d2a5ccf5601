"""Reference fair-share allocator: the generation-counter implementation.

This is the water-filling server that :mod:`repro.sim.bandwidth` shipped
before its internals were rewritten around one re-armable wake-up timer,
a fused rate/earliest-completion pass and jobs that are their own
completion events.  It is kept verbatim (only the class names differ,
and ``cancel`` is gone with the production server's) as
the oracle for ``tests/test_fairshare_oracle.py``: driven through the same
operations, the production server must reproduce its completion order,
completion times, work totals and load integrals exactly, and its kernel
event count less the superseded wake-ups this server dispatches and the
completions the production server dispatches in place inside a wake-up.
Nothing under ``src/`` imports it.

Every reallocation here bumps ``_generation`` and arms a fresh timer with
a closure; a timer armed under an older generation still fires but
returns at the generation check.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.sim.engine import Event, Simulator

__all__ = ["ReferenceJob", "ReferenceFairShareServer"]

_EPS = 1e-9


class ReferenceJob:
    """One unit of work in service at a :class:`ReferenceFairShareServer`."""

    __slots__ = ("server", "work", "remaining", "weight", "cap", "tag",
                 "done", "submitted_at", "finished_at", "_rate")

    def __init__(self, server: "ReferenceFairShareServer", work: float,
                 weight: float, cap: Optional[float], tag: Any) -> None:
        self.server = server
        self.work = float(work)
        self.remaining = float(work)
        self.weight = float(weight)
        self.cap = cap
        self.tag = tag
        #: Event that fires (with the job as value) when service completes.
        self.done: Event = Event(server.sim)
        self.submitted_at = server.sim.now
        self.finished_at: Optional[float] = None
        self._rate = 0.0  # current allocated rate

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


class ReferenceFairShareServer:
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
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.sim = sim
        self.name = name
        self._rate = float(rate)
        self._jobs: list[ReferenceJob] = []
        self._generation = 0
        self._last_update = sim.now
        # Integrals for load/utilisation accounting (see sample helpers).
        self._pop_integral = 0.0   # ∫ n(t) dt
        self._busy_integral = 0.0  # ∫ [n(t) > 0] dt
        self._work_done = 0.0      # total work completed
        self._jobs_completed = 0

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
    def jobs(self) -> tuple[ReferenceJob, ...]:
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
               cap: Optional[float] = None, tag: Any = None) -> ReferenceJob:
        """Enter a job of ``work`` units; ``job.done`` fires at completion.

        ``cap`` bounds the rate this single job may receive (e.g. a WAN
        client whose modem is slower than the server's link).
        """
        if work < 0:
            raise ValueError(f"negative work: {work}")
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        if cap is not None and cap <= 0:
            raise ValueError(f"cap must be > 0, got {cap}")
        self._advance()
        job = ReferenceJob(self, work, weight, cap, tag)
        if job.remaining <= _EPS:
            self._finish(job)
        else:
            self._jobs.append(job)
        self._reallocate()
        return job

    def set_rate(self, rate: float) -> None:
        """Change the total service rate (e.g. node slowdown)."""
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self._advance()
        self._rate = float(rate)
        self._reallocate()

    def service_time(self, work: float) -> float:
        """Unloaded service time for ``work`` units (work / rate)."""
        if self._rate <= 0:
            return math.inf
        return work / self._rate

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
        now = self.sim.now
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
            job.remaining = rem - step
            work_done += step
            if rem - step <= _EPS * (job.work if job.work > 1.0 else 1.0):
                any_done = True
        self._work_done = work_done
        # Complete any job that ran out of work exactly now.
        if any_done:
            finished = [j for j in jobs
                        if j.remaining <= _EPS * max(1.0, j.work)]
            for job in finished:
                jobs.remove(job)
                self._finish(job)

    def _finish(self, job: ReferenceJob) -> None:
        job.remaining = 0.0
        job._rate = 0.0
        job.finished_at = self.sim.now
        self._jobs_completed += 1
        job.done.succeed(job)

    def _reallocate(self) -> None:
        """Water-filling rate allocation, then schedule the next completion."""
        self._generation += 1
        jobs = self._jobs
        if not jobs:
            return
        total = self._rate
        for job in jobs:
            if job.cap is not None:
                break
        else:
            # Fast path: no capped job in service (the overwhelmingly
            # common case) — the fair share is final on the first pass, so
            # skip the iterative water-filling and its list copies.  The
            # rate expression matches the general path bit for bit.
            if total > _EPS:
                wsum = sum(j.weight for j in jobs)
                for j in jobs:
                    j._rate = total * j.weight / wsum
            else:
                for j in jobs:
                    j._rate = 0.0
            self._schedule_wakeup()
            return
        pending = list(jobs)
        # Fix capped jobs whose fair share exceeds their cap, iteratively.
        for job in pending:
            job._rate = 0.0
        while pending and total > _EPS:
            wsum = sum(j.weight for j in pending)
            capped = [j for j in pending
                      if j.cap is not None and total * j.weight / wsum > j.cap + _EPS]
            if not capped:
                for j in pending:
                    j._rate = total * j.weight / wsum
                total = 0.0
                break
            for j in capped:
                j._rate = j.cap
                total -= j.cap
                pending.remove(j)
            total = max(total, 0.0)
        self._schedule_wakeup()

    def _schedule_wakeup(self) -> None:
        """Arm a timer for the earliest completion under the new rates."""
        # Earliest completion under the new allocation.
        soonest = math.inf
        for job in self._jobs:
            if job._rate > _EPS:
                soonest = min(soonest, job.remaining / job._rate)
        if math.isfinite(soonest):
            # Floor the delay at the clock's float resolution: a delay below
            # one ulp of `now` would not advance time, and the wake-up would
            # re-arm itself forever (zero-dt livelock).
            floor = 4.0 * math.ulp(max(1.0, self.sim.now))
            gen = self._generation
            timer = self.sim.timeout(max(soonest, floor))
            timer.callbacks.append(lambda ev, gen=gen: self._wake(gen))

    def _wake(self, generation: int) -> None:
        if generation != self._generation:
            return  # state changed since this timer was armed
        self._advance()
        self._reallocate()

    def __repr__(self) -> str:
        return (f"<ReferenceFairShareServer {self.name!r} "
                f"rate={self._rate:.3g} njobs={self.njobs}>")
