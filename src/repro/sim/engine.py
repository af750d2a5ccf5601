"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, written from scratch so the reproduction has no dependencies
beyond numpy.  Processes are Python generators that ``yield`` :class:`Event`
objects; the :class:`Simulator` advances virtual time and resumes each
process when the event it waits on triggers.

Determinism: events dispatch in (time, priority, sequence number) order,
so two runs with the same seed produce identical schedules.

Same-instant lanes: most events are scheduled for the current instant
(a ``succeed``, a process start, a ``defer`` hop, a zero-delay timeout).
Such a push goes to a FIFO lane for its priority — one URGENT, one
NORMAL — and only strictly-future entries go to the heap.  A heap entry
due now was pushed before the clock got here, so it precedes every lane
entry of its priority; the run loop therefore takes the due-now URGENT
heap head, then the URGENT lane, then the due-now NORMAL heap head, then
the NORMAL lane, and only then advances the clock.  That is exactly the
(time, priority, seq) order of a single heap, without a ``heappush`` and
``heappop`` per same-instant relay.

Voidable entries: a heap entry is a 4-item list ``[time, priority, seq,
event]``.  :meth:`Simulator.schedule` puts an event on the heap and
returns its entry (a client's deadline, a fair-share station's reusable
waker, a lone job); :meth:`Simulator.withdraw` voids that entry in place
by swapping the event for a dead sentinel (the deadline once its reply
has arrived, the waker when it is re-armed).  A void entry is skipped,
never dispatched, and the heap is compacted once such dead entries
outnumber live ones, so the heap holds live work only.  The event itself
is left as it was, so a waker can be scheduled again.

Timelines: :meth:`Simulator.timeline` dispatches a whole series of future
instants (a scenario's arrival grid) with one entry on the heap at a
time.  It reserves the sequence numbers that as many timeouts armed at
the call would take, and each dispatch pushes the next entry under its
reserved key, so the series dispatches exactly as those timeouts would.

Performance: this file is the hottest code in the repository (see
``docs/PERFORMANCE.md``).  The main loop in :meth:`Simulator.run`
inlines :meth:`Simulator.step`, and the trigger/timeout paths build
their events in place and push onto the lanes and the heap directly.
All of it is behaviour-preserving: the schedule order — (time, priority,
seq) — is untouched, and ``tests/test_determinism.py`` pins
bit-identical fixed-seed results.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop, heappush
from itertools import pairwise
from typing import Any, Callable, Generator, Optional, Sequence

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

_INF = float("inf")


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

    #: event states
    PENDING, TRIGGERED, PROCESSED = 0, 1, 2

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = 0  # Event.PENDING
        self._defused = False

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._state >= 1  # Event.TRIGGERED

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
    # succeed() and fail() trigger in place (no shared helper frame):
    # ~20 triggers per request make the extra call measurable.
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._state != 0:  # Event.PENDING
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = 1  # Event.TRIGGERED
        self.sim._normal.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._state != 0:  # Event.PENDING
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self._state = 1  # Event.TRIGGERED
        self.sim._normal.append(self)
        return self

    def settle(self, value: Any = None) -> None:
        """Succeed with ``value`` and run the callbacks at once, inside the
        dispatch in progress: never queued, never dispatched on its own
        and never counted in :attr:`Simulator.event_count`.

        The kernel's hop for a completion that only passes on the one that
        caused it (a stream's last byte, a join's last leg, a reply, a
        process's return).  A callback that stops the run (the hook of a
        ``run(until=event)``) does not cut the dispatch in progress short:
        the event goes back on the NORMAL lane, where :meth:`succeed`
        would have put it, with that callback and the ones after it, and
        the stop takes effect when it dispatches there.  Any other
        exception propagates, as it would from a dispatch.
        """
        if self._state != 0:  # Event.PENDING
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = 1  # Event.TRIGGERED
        callbacks, self.callbacks = self.callbacks, None
        try:
            for cb in callbacks:
                cb(self)
        except StopSimulation:
            _requeue_from(self, callbacks, cb)
            return
        self._state = 2  # Event.PROCESSED

    def defuse(self) -> "Event":
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x} state={self._state}>"


def _requeue_from(event: Event, callbacks: list[Callable[[Event], None]],
                  hook: Callable[[Event], None]) -> None:
    """The stop rule of a dispatch in place (:meth:`Event.settle`): put
    ``event`` back on the NORMAL lane with ``hook``, the callback that
    stopped the run, and the callbacks after it."""
    i = 0
    while callbacks[i] is not hook:  # by identity: a hook is on once
        i += 1
    event.callbacks = callbacks[i:]
    event.sim._normal.append(event)


class Timeout(Event):
    """An event built triggered: it fires when its entry is dispatched.

    :meth:`Simulator.timeout` builds one in place and queues it;
    ``Timeout(sim)`` builds one to hand to :meth:`Simulator.schedule` (a
    client's deadline, a station's reusable waker) or to a lane.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = 1  # Event.TRIGGERED
        self._defused = False


class Process(Event):
    """A running generator.  As an :class:`Event` it triggers when the
    generator returns (value = return value), settled in place
    (:meth:`Event.settle`), or raises (failure, queued)."""

    __slots__ = ("gen", "name")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator,
                 name: Optional[str] = None) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(f"spawn() needs a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Kick the process off via an initialization event at the current
        # time, built in place (no Event.__init__ frame per spawn).
        init = Event.__new__(Event)
        init.sim = sim
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._state = 1  # Event.TRIGGERED
        init._defused = False
        sim._urgent.append(init)

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
                # Processed in place, never queued or counted: waiters
                # resume inside this dispatch, and a later ``yield self``
                # resumes at once.
                if self.callbacks:
                    self.settle(stop.value)
                else:
                    self._ok, self._value = True, stop.value
                    self._state, self.callbacks = 2, None  # PROCESSED
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
                # Already processed: resume immediately with its value.
                event = target
                continue
            # Throw the error into the generator, exactly as if it had
            # waited on an event that failed with it.
            event = Event(sim)
            event._ok = False
            event._value = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event instances")

    def __repr__(self) -> str:
        return f"<Process {self.name!r} alive={self.is_alive}>"


def join(sim: "Simulator", legs: Sequence[Event], value: Any = None,
         need: Optional[int] = None, done: Optional[Event] = None) -> Event:
    """Succeed ``done`` (a new event by default; a given one is left to
    the join) with ``value`` once ``need`` of ``legs`` (all by default)
    have succeeded, and return it.

    ``done`` settles in the dispatch of the leg that completes the join
    (:meth:`Event.settle`).  The first failed leg is defused and fails
    ``done`` at once, through the lane; later legs are ignored.  Legs
    already processed count at once, and if that completes the join (or
    there are no legs), ``done`` succeeds through the lane, since its
    waiter is not attached yet.  A leg of another simulator or a ``need``
    outside ``1..len(legs)`` raises :class:`SimulationError` and leaves
    the legs as they were.
    """
    if need is None:
        need = len(legs)
    elif need < 1 or need > len(legs):
        raise SimulationError(f"join needs 1 <= need <= {len(legs)}, "
                              f"got {need}")
    if done is None:
        done = Event(sim)
    left = need  # legs still needed: 0 once done, below 0 after that

    def leg(ev: Event, finish: Callable[[Any], Any] = done.settle) -> None:
        nonlocal left
        if ev._ok:
            left -= 1
            if not left:
                finish(value)
        elif left > 0:
            left = 0
            ev._defused = True
            done.fail(ev._value)

    # One pass checks and attaches (joins are on the hot path); processed
    # legs, and a join of none, count after it, so a bad leg has only the
    # attaching to undo.
    processed = not legs
    for ev in legs:
        callbacks = ev.callbacks
        if ev.sim is not sim:
            for other in legs:
                if other.callbacks is not None:
                    other.callbacks[:] = [cb for cb in other.callbacks
                                          if cb is not leg]
            raise SimulationError("join mixes events from different "
                                  "simulators")
        if callbacks is not None:
            callbacks.append(leg)
        else:
            processed = True
    if processed:
        if not legs:
            done.succeed(value)
        for ev in legs:
            if ev.callbacks is None:
                leg(ev, done.succeed)
    return done


class _Withdrawn:
    """What a withdrawn heap entry holds in place of its event: no
    callbacks, so the run loop discards the entry as a dead one."""

    __slots__ = ()
    callbacks = None


#: The one dead sentinel every withdrawn entry points at.
_DEAD = _Withdrawn()


class Simulator:
    """The event loop: owns virtual time, the same-instant lanes and the
    heap of future entries."""

    def __init__(self, start_time: float = 0.0) -> None:
        #: current simulated time (read-only: only the run loop moves it;
        #: lint rule ``sched-engine-internals`` flags writes elsewhere)
        self.now = float(start_time)
        #: strictly-future entries, ``[time, priority, seq, event]`` (a
        #: list, so that withdraw() can void one in place)
        self._queue: list[list[Any]] = []
        #: events due at ``now``, one FIFO per priority (no seq needed:
        #: a lane's order is its push order)
        self._urgent: deque[Event] = deque()
        self._normal: deque[Event] = deque()
        self._seq = 0
        self._event_count = 0
        #: entries ever withdrawn, and the dead entries still on the heap
        self._cancelled = 0
        self._dead = 0
        #: timeline entries reserved but not pushed yet (see timeline())
        self._parked = 0

    # -- time --------------------------------------------------------------
    @property
    def event_count(self) -> int:
        """Queue dispatches so far (a determinism fingerprint): withdrawn
        entries and events processed in place (a settled event, such as
        a returning process, and the jobs a fair-share wake-up
        completes) are not counted."""
        return self._event_count

    @property
    def cancelled(self) -> int:
        """Scheduled entries withdrawn by :meth:`withdraw` so far."""
        return self._cancelled

    @property
    def pending(self) -> int:
        """Live scheduled entries: the heap minus its dead entries, plus
        the live lane entries and the parked timeline entries."""
        lanes = sum(1 for lane in (self._urgent, self._normal)
                    for event in lane if event.callbacks is not None)
        return len(self._queue) - self._dead + lanes + self._parked

    # -- event construction --------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now.

        Hot path: builds the :class:`Timeout` with ``__new__`` and sets
        every field directly (no ``__init__`` call frame per event).  A
        delay the clock cannot resolve (zero, or one that float rounding
        absorbs) lands in the NORMAL lane.  A negative, NaN or infinite
        delay is rejected: a NaN key would dispatch out of order, and an
        infinite one would move the clock to infinity.
        """
        # Chained comparison: NaN fails it.
        if not 0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and >= 0, "
                             f"got {delay}")
        ev = Timeout.__new__(Timeout)
        ev.sim = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._state = 1  # Event.TRIGGERED
        ev._defused = False
        now = self.now
        when = now + delay
        if when == now:
            self._normal.append(ev)
        else:
            self._seq = seq = self._seq + 1
            heappush(self._queue, [when, NORMAL, seq, ev])
        return ev

    def spawn(self, gen: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name=name)

    def defer(self, fn: Callable[[Event], None]) -> Event:
        """Run ``fn(event)`` urgently at the current time, once the event
        being processed now has finished.

        A process-free alternative to :meth:`spawn` for straight-line
        callback chains (the network/disk pumps): it schedules exactly
        like a new process's initialisation event — same URGENT lane,
        same position in it — without the generator, the
        :class:`Process` object, or the process-completion event.
        """
        ev = Timeout(self)
        ev.callbacks.append(fn)
        self._urgent.append(ev)
        return ev

    # -- scheduling ----------------------------------------------------------
    def schedule(self, event: Event, when: float) -> list[Any]:
        """Put ``event`` on the heap at ``when`` and return its entry.

        ``when`` must lie strictly after :attr:`now`.  The entry takes the
        next sequence number, exactly as :meth:`timeout` does for a
        future delay, with NORMAL priority.  The kernel dispatches the
        event as it finds it: its callbacks run in order and a failure
        with nothing to defuse it stops the run.  So the event must be
        triggered by then, either built triggered (``Timeout(sim)``: a
        deadline, a reusable waker) or triggered by its first callback (a
        lone fair-share job's completion hook).  An event may be scheduled
        again once its entry has been dispatched or withdrawn; dispatch
        clears its callbacks, so a reused event restores them itself.
        """
        if not self.now < when < _INF:
            raise ValueError(f"schedule() needs now < when < inf, got "
                             f"when={when} at now={self.now}")
        self._seq = seq = self._seq + 1
        entry = [when, NORMAL, seq, event]
        heappush(self._queue, entry)
        return entry

    def withdraw(self, entry: list[Any]) -> None:
        """Void a live entry returned by :meth:`schedule`.

        The entry keeps its heap slot but now holds a dead sentinel, so it
        is never dispatched, never counted in :attr:`event_count` and never
        moves the clock.  It counts in :attr:`cancelled`, and once dead
        entries outnumber live ones the heap is compacted (see
        :meth:`_compact`).  The event itself is left untouched: it is not
        processed, its waiters keep waiting and it can be scheduled again.
        Withdraw an entry once, and only while it is still on the heap.
        """
        entry[3] = _DEAD
        self._cancelled += 1
        self._dead += 1
        if 2 * self._dead > len(self._queue):
            self._compact()

    def timeline(self, whens: Sequence[float],
                 fn: Callable[[int], None]) -> None:
        """Call ``fn(i)`` as the clock reaches ``whens[i]``, for every ``i``.

        ``whens`` must be finite and nondecreasing, its first value
        strictly after :attr:`now`; an empty one does nothing.  The call
        reserves the ``len(whens)`` sequence numbers that as many
        :meth:`timeout` calls made right now would take, and entry ``i``
        dispatches under exactly ``(whens[i], NORMAL, first + i)``: the
        same order, clocks and :attr:`event_count` as those timeouts.

        Only one entry is on the heap at a time.  One reusable triggered
        event carries the series; its dispatch restores its callbacks,
        pushes entry ``i + 1`` (the last one lets the series go) and then
        calls ``fn(i)``, so a raising
        ``fn`` leaves the rest of the series to a later :meth:`run`.  The
        keys strictly increase, so entry ``i + 1`` is on the heap before
        it can be due.  :attr:`pending` counts the entries not pushed yet.
        A series entry cannot be withdrawn.
        """
        whens = tuple(whens)
        n = len(whens)
        if not n:
            return
        # Chained comparisons: NaN fails them.
        if not self.now < whens[0] < _INF or not all(
                a <= b < _INF for a, b in pairwise(whens)):
            raise ValueError(f"timeline() needs finite, nondecreasing "
                             f"instants after now={self.now}")
        first = self._seq + 1
        self._seq += n
        self._parked += n - 1
        heap = self._queue
        carrier = Timeout(self)
        index = 0

        def dispatch(_event: Event) -> None:
            nonlocal index
            i = index
            index += 1
            if index < n:
                carrier.callbacks = callbacks
                self._parked -= 1
                heappush(heap, [whens[index], NORMAL, first + index, carrier])
            else:
                # The series is over: drop this function from its own
                # list, a cycle that only the cyclic collector would free.
                callbacks.clear()
            fn(i)

        callbacks: list[Callable[[Event], None]] = [dispatch]
        carrier.callbacks = callbacks
        heappush(heap, [whens[0], NORMAL, first, carrier])

    def _compact(self) -> None:
        """Drop the dead entries from the heap, in place (run() holds a
        reference to this very list).  Live keys ``(time, priority,
        seq)`` are unique, so filtering and re-heapifying leaves their pop
        order unchanged."""
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if entry[3].callbacks is not None]
        heapq.heapify(queue)
        self._dead = 0

    def _pop(self) -> Optional[Event]:
        """Remove the next live event in (time, priority, seq) order,
        advancing the clock to it; None when nothing live is left.
        Dead entries met on the way are discarded.

        :meth:`run` inlines this body for speed; keep the two in sync.
        """
        heap = self._queue
        urgent = self._urgent
        normal = self._normal
        while True:
            now = self.now
            if urgent or normal:
                # A heap entry due now was pushed before the clock got
                # here, so it precedes every lane entry of its priority;
                # only a NORMAL one yields to the URGENT lane.
                if (heap and heap[0][0] <= now
                        and (heap[0][1] == URGENT or not urgent
                             or heap[0][0] < now)):
                    when, _prio, _seq, event = heappop(heap)
                    if event.callbacks is None:
                        self._dead -= 1
                        continue
                    if when < now - 1e-12:
                        raise SimulationError("event scheduled in the past")
                else:
                    event = urgent.popleft() if urgent else normal.popleft()
            elif heap:
                when, _prio, _seq, event = heappop(heap)
                if event.callbacks is None:
                    self._dead -= 1
                    continue
                if when >= now:
                    self.now = when
                elif when < now - 1e-12:
                    raise SimulationError("event scheduled in the past")
            else:
                return None
            if event.callbacks is not None:
                return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        when = float("inf")
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[3].callbacks is not None:
                when = entry[0]
                break
            heappop(queue)
            self._dead -= 1
        for lane in (self._urgent, self._normal):
            while lane and lane[0].callbacks is None:
                lane.popleft()
            if lane and self.now < when:
                return self.now
        return when

    def step(self) -> None:
        """Process exactly one event."""
        event = self._pop()
        if event is None:
            raise SimulationError("step() on an empty event queue")
        self._event_count += 1
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        event._state = Event.PROCESSED
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a finite number no
        earlier than :attr:`now` (run up to that time), or an
        :class:`Event` (run until it is processed, and return its value).
        A run that ends otherwise (an exception, or the events running
        out first) takes its stop marker off the heap, or its hook off
        the event, on the way out, so no later run stops at it.
        """
        stopper: Optional[Event] = None
        stopper_in_lane = False
        halt: Optional[Callable[[Event], None]] = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
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
                # Chained comparison: NaN fails it, and an infinite stop
                # would move the clock to infinity.
                if not self.now <= at < _INF:
                    raise ValueError(f"until={at} must be finite and not in "
                                     f"the past (now={self.now})")
                stopper = Timeout(self)
                stopper.callbacks = [lambda ev: (_ for _ in ()).throw(StopSimulation(None))]
                if at == self.now:
                    self._urgent.append(stopper)
                    stopper_in_lane = True
                else:
                    self._seq += 1
                    heapq.heappush(self._queue, [at, URGENT, self._seq, stopper])
        # Hot loop: an inlined copy of _pop() and step() (kept in sync by
        # hand) with bound locals — the method-call and attribute-lookup
        # overhead per event is the single largest kernel cost.  Callbacks
        # never move the clock, so ``now`` is kept in a local.
        heap = self._queue
        urgent = self._urgent
        normal = self._normal
        urgent_pop = urgent.popleft
        normal_pop = normal.popleft
        pop = heappop
        now = self.now
        try:
            while True:
                if urgent or normal:
                    if (heap and heap[0][0] <= now
                            and (heap[0][1] == URGENT or not urgent
                                 or heap[0][0] < now)):
                        when, _prio, _seq, event = pop(heap)
                        callbacks = event.callbacks
                        if callbacks is None:
                            self._dead -= 1  # withdrawn: never dispatched
                            continue
                        if when < now - 1e-12:
                            raise SimulationError("event scheduled in the past")
                    else:
                        event = urgent_pop() if urgent else normal_pop()
                        callbacks = event.callbacks
                        if callbacks is None:  # an unreached stop marker
                            continue
                elif heap:
                    when, _prio, _seq, event = pop(heap)
                    callbacks = event.callbacks
                    if callbacks is None:
                        self._dead -= 1
                        continue
                    if when >= now:
                        self.now = now = when
                    elif when < now - 1e-12:
                        raise SimulationError("event scheduled in the past")
                else:
                    break
                self._event_count += 1
                event.callbacks = None
                for cb in callbacks:
                    cb(event)
                event._state = 2  # Event.PROCESSED
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            # A stop hook ends the run, not the dispatch: the callbacks
            # after it (waiters that came after the hook) still run.
            i = 0
            while callbacks[i] is not cb:
                i += 1
            for cb in callbacks[i + 1:]:
                cb(event)
            event._state = 2  # Event.PROCESSED
            return stop.value
        finally:
            if stopper is not None:
                if stopper.callbacks is not None:
                    # Not reached: dead, it is skipped in the lane or
                    # dropped from the heap, as a withdrawn entry is.
                    stopper.callbacks = None
                    if not stopper_in_lane:
                        self._dead += 1
            elif halt is not None:
                hooks = until.callbacks
                if hooks is not None and halt in hooks:
                    hooks.remove(halt)
        if isinstance(until, Event) and until._state != Event.PROCESSED:
            raise SimulationError("run() ran out of events before `until` triggered")
        return until._value if isinstance(until, Event) else None
