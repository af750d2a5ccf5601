"""Reference kernel: the heap-only scheduler.

This is the :mod:`repro.sim.engine` that shipped before events due at the
current instant moved to per-priority FIFO lanes.  It is kept verbatim
apart from this docstring and the rules the production kernel adopted
later, so the two keep one dispatch structure: a process whose generator
returns is settled in place, its waiters resumed in the dispatch that
ran it, never queued or counted (``Event.settle``, ``Process._resume``);
a join of several events settles in the dispatch of the leg that
completes it (``join``); a run that ends otherwise than at its own stop
takes its stop marker or hook with it, and a stop hook ends the run but
not the dispatch that reached it (``Simulator.run``).  It is the oracle
for ``tests/test_kernel_oracle.py`` and the no-op-cancel reference of
``tests/test_sim_cancel.py``: driven through the same program, the
production kernel must dispatch the same events in the same order at the
same clock, with the same values and ``event_count``.  Nothing under
``src/`` imports it.

Every scheduled event, due now or later, is one ``(time, priority, seq)``
entry on a single binary heap; ties break on the sequence number, so two
entries due at one instant dispatch URGENT before NORMAL and, within a
priority, in the order they were scheduled.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "join",
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for process start-up, deferred callbacks and
#: simulation-control events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

ProcessGenerator = Generator["Event", Any, Any]


class SimulationError(RuntimeError):
    """Raised for illegal kernel operations (double trigger, bad yield...)."""


class StopSimulation(Exception):
    """Internal control-flow exception that halts :meth:`Simulator.run`."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Event:
    """A condition that may trigger once, at a point in simulated time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules it on the event queue; when the simulator
    pops it, the event is *processed* and its callbacks run (resuming any
    process waiting on it).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "_defused")

    #: event states (a cancelled event was scheduled, then withdrawn by
    #: :meth:`Simulator.cancel` before it could be processed)
    PENDING, TRIGGERED, PROCESSED, CANCELLED = 0, 1, 2, 3

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        pool = sim._cb_pool
        self.callbacks: Optional[list[Callable[["Event"], None]]] = (
            pool.pop() if pool else [])
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = Event.PENDING
        self._defused = False

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._state >= Event.TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the simulator has run this event's callbacks."""
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The payload passed to :meth:`succeed` (or the failure exception)."""
        if self._state == Event.PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        self._trigger(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(False, exception)
        return self

    def settle(self, value: Any = None) -> None:
        """Succeed with ``value`` and run the callbacks at once, inside the
        dispatch in progress: never queued or counted.  A callback that
        stops the run puts the event back on the queue, where succeed()
        would have put it, with that callback and the ones after it."""
        if self._state != Event.PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = Event.TRIGGERED
        callbacks, self.callbacks = self.callbacks, None
        try:
            for cb in callbacks:
                cb(self)
        except StopSimulation:
            i = 0
            while callbacks[i] is not cb:
                i += 1
            self.callbacks = callbacks[i:]
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (sim._now, NORMAL, seq, self))
            return
        self._state = Event.PROCESSED

    def defuse(self) -> "Event":
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True
        return self

    def _trigger(self, ok: bool, value: Any, priority: int = NORMAL) -> None:
        if self._state != Event.PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = ok
        self._value = value
        self._state = Event.TRIGGERED
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, priority, seq, self))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x} state={self._state}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Built only by :meth:`Simulator.timeout`, which sets every field itself.
    """

    __slots__ = ("delay",)


class Process(Event):
    """A running generator.  As an :class:`Event` it triggers when the
    generator returns (value = return value) or raises (failure)."""

    __slots__ = ("gen", "name")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator,
                 name: Optional[str] = None) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(f"spawn() needs a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Kick the process off via an initialization event at the current time.
        init = Event(sim)
        init._ok = True
        init._state = Event.TRIGGERED
        init.callbacks.append(self._resume)
        sim._seq = seq = sim._seq + 1
        heappush(sim._queue, (sim._now, URGENT, seq, init))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == Event.PENDING

    def _resume(self, event: Event) -> None:
        sim = self.sim
        gen = self.gen
        send = gen.send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    event._defused = True
                    target = gen.throw(event._value)
            except StopIteration as stop:
                # Settled in place: its waiters resume inside this
                # dispatch, and a later ``yield self`` resumes at once.
                self.settle(stop.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc)
                return

            if isinstance(target, Event):
                if target.sim is not sim:
                    raise SimulationError(
                        f"process {self.name!r} yielded an event from a "
                        f"different simulator")
                cbs = target.callbacks
                if cbs is not None:
                    cbs.append(self._resume)
                    return
                if target._state != Event.CANCELLED:
                    # Already processed: resume immediately with its value.
                    event = target
                    continue
                msg = (f"process {self.name!r} yielded {target!r}, "
                       f"which was cancelled")
            else:
                msg = (f"process {self.name!r} yielded {target!r}; "
                       f"processes must yield Event instances")
            # Throw the error into the generator, exactly as if it had
            # waited on an event that failed with it.
            event = Event(sim)
            event._ok = False
            event._value = SimulationError(msg)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} alive={self.is_alive}>"


def join(sim: "Simulator", legs: Iterable[Event], value: Any = None,
         need: Optional[int] = None, done: Optional[Event] = None) -> Event:
    """Succeed ``done`` (a new event by default) with ``value`` once
    ``need`` of ``legs`` (all by default) have succeeded, settled in the
    dispatch of the leg that completes it; the first failed leg fails
    it, and once it has completed or failed the other legs are ignored.
    A leg already processed counts at once, and if that completes the
    join, ``done`` is queued, as is a join of no legs."""
    legs = list(legs)
    if need is None:
        need = len(legs)
    elif not 1 <= need <= len(legs):
        raise SimulationError(f"join needs 1 <= need <= {len(legs)}, "
                              f"got {need}")
    for ev in legs:
        if ev.sim is not sim:
            raise SimulationError("join mixes events from different simulators")
        if ev.callbacks is None and ev._state == Event.CANCELLED:
            raise SimulationError(f"join on cancelled event {ev!r}")
    if done is None:
        done = Event(sim)
    if not legs:
        done.succeed(value)
        return done
    fired = 0
    closed = False

    def check(ev: Event, dispatching: bool = True) -> None:
        nonlocal fired, closed
        if closed:
            return
        if not ev.ok:
            closed = True
            ev.defuse()
            done.fail(ev.value)
            return
        fired += 1
        if fired == need:
            closed = True
            if dispatching:
                done.settle(value)
            else:
                done.succeed(value)

    for ev in legs:
        if ev.callbacks is None:
            check(ev, dispatching=False)
        else:
            ev.callbacks.append(check)
    return done


class Simulator:
    """The event loop: owns virtual time and the pending-event heap."""

    #: cap on the callback-list free pool (plenty for the deepest cascade)
    _POOL_MAX = 256

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._event_count = 0
        #: entries ever withdrawn by cancel(), and those still on the heap
        self._cancelled = 0
        self._dead = 0
        # Free pool of empty callback lists: Event.__init__ pops, the run
        # loop returns each processed event's (cleared) list.  Purely an
        # allocation-rate optimisation — never observable.
        self._cb_pool: list[list] = []

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def event_count(self) -> int:
        """Events dispatched so far (a determinism fingerprint); cancelled
        entries are never dispatched."""
        return self._event_count

    @property
    def cancelled(self) -> int:
        """Scheduled entries withdrawn by :meth:`cancel` so far."""
        return self._cancelled

    @property
    def pending(self) -> int:
        """Live scheduled entries: the heap minus its cancelled entries."""
        return len(self._queue) - self._dead

    # -- event construction --------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now.

        Hot path: builds the :class:`Timeout` with ``__new__`` and sets
        every field directly (no ``__init__`` call frame per event).
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        ev = Timeout.__new__(Timeout)
        ev.sim = self
        pool = self._cb_pool
        ev.callbacks = pool.pop() if pool else []
        ev._value = value
        ev._ok = True
        ev._state = 1  # Event.TRIGGERED
        ev._defused = False
        ev.delay = delay
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now + delay, NORMAL, seq, ev))
        return ev

    def spawn(self, gen: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name=name)

    def defer(self, fn: Callable[[Event], None]) -> Event:
        """Run ``fn(event)`` urgently at the current time, once the event
        being processed now has finished.

        A process-free alternative to :meth:`spawn` for straight-line
        callback chains (the network/disk pumps): it schedules exactly
        like a new process's initialisation event — same URGENT priority,
        same sequence position — without the generator, the
        :class:`Process` object, or the process-completion event.
        """
        ev = Event(self)
        ev._ok = True
        ev._state = Event.TRIGGERED
        ev.callbacks.append(fn)
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self._now, URGENT, seq, ev))
        return ev

    # -- scheduling ----------------------------------------------------------
    def cancel(self, event: Event) -> None:
        """Withdraw a scheduled event before it is processed.

        The entry stays on the heap but is never dispatched: it runs no
        callbacks, does not count in :attr:`event_count` and never moves
        the clock.  Whatever waits on it waits forever, and yielding it
        or building a condition on it afterwards raises
        :class:`SimulationError`.  Cancelling an event that has already
        been processed (or cancelled) is a no-op.

        Once cancelled entries outnumber live ones, the heap is compacted
        in place: live keys ``(time, priority, seq)`` are unique, so
        filtering and re-heapifying leaves their pop order unchanged.
        """
        if event.sim is not self:
            raise SimulationError(f"cannot cancel {event!r}: it belongs to "
                                  f"another simulator")
        callbacks = event.callbacks
        if callbacks is None:
            return
        if event._state != Event.TRIGGERED:
            raise SimulationError(f"cannot cancel {event!r}: not scheduled")
        event.callbacks = None
        event._state = Event.CANCELLED
        self._cancelled += 1
        self._dead = dead = self._dead + 1
        if len(self._cb_pool) < self._POOL_MAX:
            callbacks.clear()
            self._cb_pool.append(callbacks)
        queue = self._queue
        if 2 * dead > len(queue):
            # In place: run() holds a reference to this very list.
            queue[:] = [entry for entry in queue
                        if entry[3].callbacks is not None]
            heapq.heapify(queue)
            self._dead = 0

    def _live_head(self) -> Optional[tuple[float, int, int, Event]]:
        """Pop cancelled entries off the top of the heap; return the first
        live entry (left in place), or None when none is left."""
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[3].callbacks is not None:
                return entry
            heappop(queue)
            self._dead -= 1
        return None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        entry = self._live_head()
        return entry[0] if entry is not None else float("inf")

    def step(self) -> None:
        """Process exactly one event.

        :meth:`run` inlines this body for speed; keep the two in sync.
        """
        if self._live_head() is None:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heappop(self._queue)
        if when < self._now - 1e-12:
            raise SimulationError("event scheduled in the past")
        self._now = max(self._now, when)
        self._event_count += 1
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        event._state = Event.PROCESSED
        if not event._ok and not event._defused:
            exc = event._value
            raise exc
        if len(self._cb_pool) < self._POOL_MAX:
            callbacks.clear()
            self._cb_pool.append(callbacks)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a number (run up to
        that time), or an :class:`Event` (run until it is processed, and
        return its value).
        """
        stopper: Optional[Event] = None
        halt: Optional[Callable[[Event], None]] = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    if until._state == Event.CANCELLED:
                        raise SimulationError(
                            f"run(until={until!r}): the event was cancelled")
                    if not until._ok and not until._defused:
                        until._defused = True
                        raise until._value
                    return until._value

                def _halt(ev: Event) -> None:
                    if not ev._ok and not ev._defused:
                        ev._defused = True
                        raise ev._value
                    raise StopSimulation(ev._value)

                halt = _halt
                until.callbacks.append(halt)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until={at} lies in the past (now={self._now})")
                stopper = Event(self)
                stopper._ok = True
                stopper._value = None
                stopper._state = Event.TRIGGERED
                stopper.callbacks = [lambda ev: (_ for _ in ()).throw(StopSimulation(None))]
                self._seq += 1
                heapq.heappush(self._queue, (at, URGENT, self._seq, stopper))
        # Hot loop: an inlined copy of step() (kept in sync by hand) with
        # bound locals — the method-call and attribute-lookup overhead per
        # event is the single largest kernel cost.
        queue = self._queue
        pool = self._cb_pool
        pool_max = self._POOL_MAX
        pop = heappop
        try:
            while queue:
                when, _prio, _seq, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is None:
                    self._dead -= 1  # a cancelled entry: never dispatched
                    continue
                now = self._now
                if when >= now:
                    self._now = when
                elif when < now - 1e-12:
                    raise SimulationError("event scheduled in the past")
                self._event_count += 1
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                event._state = 2  # Event.PROCESSED
                if not event._ok and not event._defused:
                    raise event._value
                if len(pool) < pool_max:
                    callbacks.clear()
                    pool.append(callbacks)
        except StopSimulation as stop:
            # The stop ends the run, not the dispatch: the event's other
            # callbacks run, and it is processed.
            rest = callbacks[callbacks.index(cb) + 1:]
            for cb in rest:
                cb(event)
            event._state = Event.PROCESSED
            return stop.value
        finally:
            if stopper is not None:
                if stopper.callbacks is not None:
                    # Not reached: dead, dropped as a cancelled entry is.
                    stopper.callbacks = None
                    self._dead += 1
            elif halt is not None:
                hooks = until.callbacks
                if hooks is not None and halt in hooks:
                    hooks.remove(halt)
        if isinstance(until, Event) and until._state != Event.PROCESSED:
            raise SimulationError("run() ran out of events before `until` triggered")
        return until._value if isinstance(until, Event) else None
