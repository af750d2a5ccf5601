"""Observation tools the benchmark installs around the program, and removes.

Nothing here edits ``repro``: every hook is attached for one run and
detached in a ``finally`` block.

* :class:`FirstRunClock` stamps the host time of the first
  ``Simulator.run`` call, which is where set-up ends and the first event
  is about to be dispatched.
* :class:`Spans` wraps named public entry points, counts their calls and
  keeps one span (entry point, parent span, start, end) per call in
  memory; :meth:`Spans.write` puts them on disk after the run.
* :class:`LayerProfile` runs :mod:`cProfile` (the interpreter's profiler
  hook) and attributes self time to ``repro.<layer>`` packages by the
  innermost ``repro`` frame: time in a stdlib or numpy function counts
  against the layer that called it.
* :class:`SpeedProbe` interleaves a fixed reference job with the program
  on a timer signal, so host times can be read at a reference speed.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import importlib
import os
import pstats
import signal
import time
from array import array
from typing import Optional

import numpy as np

__all__ = ["ENTRY_POINTS", "FAMILY", "FirstRunClock", "LayerProfile", "LAYERS",
           "SetupDone", "SpeedProbe", "Spans", "reference_job"]

#: layers reported by self share, in report order; ``repro_other`` takes
#: any other repro module (faults, top-level modules) and ``nonrepro``
#: the time with no repro frame on the stack (interpreter, benchmark)
LAYERS = ("obs", "sim", "sched", "cluster", "cache", "web", "core",
          "workload", "geo", "experiments")
OTHER_REPRO = "repro_other"
NON_REPRO = "nonrepro"

#: span name -> (module, class, method).  ``holds`` and ``resolve_ex``
#: ride along with ``holders`` and ``resolve``: they are what the broker
#: and the client actually call (the latter two delegate to them).
ENTRY_POINTS = {
    "core.broker.choose_server": ("repro.core.broker", "Broker",
                                  "choose_server"),
    "sim.fairshare.submit": ("repro.sim.bandwidth", "FairShareServer",
                             "submit"),
    "cluster.fs.read": ("repro.cluster.filesystem", "DistributedFileSystem",
                        "read"),
    "cache.directory.holders": ("repro.cache.directory", "CacheDirectory",
                                "holders"),
    "cache.directory.holds": ("repro.cache.directory", "CacheDirectory",
                              "holds"),
    "web.dns.resolve": ("repro.web.dns", "RoundRobinDNS", "resolve"),
    "web.dns.resolve_ex": ("repro.web.dns", "RoundRobinDNS", "resolve_ex"),
    "geo.fs.read": ("repro.geo.fs", "GeoFileSystem", "read"),
}

#: entry points that call one another count once per outermost call:
#: ``holders`` calls ``holds``, ``resolve`` calls ``resolve_ex`` and a
#: geo read of a non-WAN file calls ``DistributedFileSystem.read``
FAMILY = {"core.broker.choose_server": "broker",
          "sim.fairshare.submit": "fairshare",
          "cluster.fs.read": "fs", "geo.fs.read": "fs",
          "cache.directory.holders": "directory",
          "cache.directory.holds": "directory",
          "web.dns.resolve": "dns", "web.dns.resolve_ex": "dns"}


def _patch(module: str, cls: str, method: str, make):
    """Replace ``cls.method`` by ``make(original)``; return an undo."""
    owner = getattr(importlib.import_module(module), cls)
    original = owner.__dict__[method]
    setattr(owner, method, functools.wraps(original)(make(original)))
    return lambda: setattr(owner, method, original)


class SetupDone(Exception):
    """Raised by an aborting :class:`FirstRunClock` at the first event."""


class FirstRunClock:
    """Context manager stamping ``perf_counter`` at the first sim run.

    With ``abort=True`` the run stops right there (a set-up-only probe).
    """

    def __init__(self, abort: bool = False) -> None:
        self.abort = abort
        self.first: Optional[float] = None
        self._undo = None

    def __enter__(self) -> "FirstRunClock":
        clock = self

        def make(run):
            def timed_run(sim, *args, **kwargs):
                if clock.first is None:
                    clock.first = time.perf_counter()
                    if clock.abort:
                        raise SetupDone()
                return run(sim, *args, **kwargs)
            return timed_run

        self._undo = _patch("repro.sim.engine", "Simulator", "run", make)
        return self

    def __exit__(self, *exc) -> None:
        self._undo()


#: loop steps of :func:`reference_job`; about 1 ms on a 2.0 GHz Xeon vCPU
REFERENCE_STEPS = 12_000
#: what :func:`reference_job` takes at the reference speed, host seconds
REFERENCE_S = 1e-3


#: fewest reference timings :meth:`SpeedProbe.reference_s` takes a median of
REFERENCE_LEAST = 9


def reference_job() -> int:
    """A fixed pure-Python integer loop: the yardstick of host speed.

    It allocates nothing the garbage collector tracks, so it neither
    triggers nor pays for collections of the program's heap.  Timed
    between slices of the simulator, its time moves in proportion to
    the simulator's as the shared host speeds up and slows down (a
    miniature event loop of generators and heap tuples was tried too,
    and moved only with about the square root of the simulator's time,
    probably because its allocations set off collections of the
    simulator's heap).
    """
    total = 0
    for i in range(REFERENCE_STEPS):
        total += i * i
    return total


class SpeedProbe:
    """Runs :func:`reference_job` every ``period`` host seconds of program.

    A one-shot ``SIGALRM`` timer, re-armed at the end of each handler,
    interrupts the program between bytecodes; the handler runs the
    reference job and stamps when and how long.  :meth:`reference_s`
    gives the segment's reference speed and :meth:`net_s` its host time
    without the handlers, so ``net_s * REFERENCE_S / reference_s`` is
    the segment's host time at the reference speed.  On a shared host
    whose speed swings by ±25 % within seconds, the program's and the
    job's times move together when they alternate this finely.
    """

    def __init__(self, period: float = 0.02) -> None:
        self.period = period
        #: handler start, handler length and job length, host seconds
        self.at = array("d")
        self.span = array("d")
        self.job = array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_job()
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period)
        self.at.append(t0)
        self.job.append(t1 - t0)
        self.span.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        reference_job()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __len__(self) -> int:
        return len(self.at)

    def net_s(self, t0: float, t1: float) -> float:
        """Host seconds in ``[t0, t1)`` not spent in the handler."""
        at = np.frombuffer(self.at)
        inside = (at >= t0) & (at < t1)
        return (t1 - t0) - float(np.frombuffer(self.span)[inside].sum())

    def reference_s(self, t0: float, t1: float) -> float:
        """Median job time over the segment ``[t0, t1)``, widened to the
        ``REFERENCE_LEAST`` samples nearest its middle when it holds
        fewer."""
        at = np.frombuffer(self.at)
        job = np.frombuffer(self.job)
        if not len(at):
            raise RuntimeError("no reference samples were taken")
        inside = (at >= t0) & (at < t1)
        if inside.sum() >= REFERENCE_LEAST:
            return float(np.median(job[inside]))
        nearest = np.argsort(np.abs(at - (t0 + t1) / 2.0), kind="stable")
        return float(np.median(job[nearest[:REFERENCE_LEAST]]))

    def scaled_s(self, t0: float, t1: float) -> float:
        """Host seconds of ``[t0, t1)`` at the reference speed."""
        return self.net_s(t0, t1) * REFERENCE_S / self.reference_s(t0, t1)


class Spans:
    """Call-counting, span-keeping wrappers on :data:`ENTRY_POINTS`."""

    def __init__(self) -> None:
        self.names = list(ENTRY_POINTS)
        self.kind = array("b")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._undo: list = []

    def __enter__(self) -> "Spans":
        stack: list[int] = []
        clock = time.perf_counter_ns
        kind, parent, start, end = self.kind, self.parent, self.start, self.end

        for idx, name in enumerate(self.names):
            def make(fn, idx=idx):
                def traced(*args, **kwargs):
                    span = len(kind)
                    kind.append(idx)
                    parent.append(stack[-1] if stack else -1)
                    end.append(0)
                    stack.append(span)
                    start.append(clock())
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        end[span] = clock()
                        stack.pop()
                return traced
            self._undo.append(_patch(*ENTRY_POINTS[name], make))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def __len__(self) -> int:
        return len(self.kind)

    def summary(self) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
        """Per entry point: calls, total and self host seconds; and per
        :data:`FAMILY`, the calls not made from inside the same family."""
        kind = np.frombuffer(self.kind, dtype=np.int8)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        children = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        families = sorted(set(FAMILY.values()))
        family = np.array([families.index(FAMILY[n]) for n in self.names])
        outer = np.ones(len(kind), dtype=bool)
        outer[nested] = (family[kind[nested]]
                         != family[kind[parent[nested]]])
        per_entry = {}
        for idx, name in enumerate(self.names):
            mine = kind == idx
            per_entry[name] = {
                "calls": int(mine.sum()),
                "total_s": float(dur[mine].sum()) / 1e9,
                "self_s": float((dur - children)[mine].sum()) / 1e9}
        per_family = {fam: int((outer & (family[kind] == i)).sum())
                      for i, fam in enumerate(families)}
        return per_entry, per_family

    def write(self, path: str) -> None:
        """Write every span as gzip'd CSV: id,parent,entry_point,t0,t1 (ns)."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        base = self.start[0] if len(self) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,entry_point,start_ns,end_ns\n")
            names = self.names
            for i, (k, p, t0, t1) in enumerate(zip(self.kind, self.parent,
                                                   self.start, self.end)):
                fh.write(f"{i},{p},{names[k]},{t0 - base},{t1 - base}\n")


class LayerProfile:
    """cProfile run with self time attributed to ``repro`` layers."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self.repro_dir = os.path.join(os.path.abspath(repro_dir), "")
        self.bench_dir = os.path.join(os.path.abspath(bench_dir), "")
        self.profile = cProfile.Profile()

    def __enter__(self) -> "LayerProfile":
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()

    def _layer(self, filename: str) -> Optional[str]:
        """Owning layer of a code file; None for stdlib/numpy/builtins."""
        path = os.path.abspath(filename) if filename[:1] not in "~<" else ""
        if path.startswith(self.bench_dir):
            return NON_REPRO
        if not path.startswith(self.repro_dir):
            return None
        package = path[len(self.repro_dir):].split(os.sep)[0]
        return package if package in LAYERS else OTHER_REPRO

    def self_seconds(self) -> tuple[dict[str, float], float]:
        """Self seconds per layer, and the profile's total self time.

        A function outside ``repro`` hands its self time to its callers
        in proportion to the time it spent under each (``tottime`` per
        call edge), recursively, until a ``repro`` or benchmark frame
        owns it; time with no owner on any path is ``nonrepro``.
        """
        stats = pstats.Stats(self.profile).stats  # type: ignore[attr-defined]
        memo: dict = {}
        visiting: set = set()

        def owners(func) -> dict[str, float]:
            layer = self._layer(func[0])
            if layer is not None:
                return {layer: 1.0}
            if func in memo:
                return memo[func]
            if func in visiting or func not in stats:
                return {NON_REPRO: 1.0}
            visiting.add(func)
            callers = stats[func][4]
            weight = sum(edge[3] for edge in callers.values())
            result: dict[str, float] = {}
            if weight > 0:
                for caller, edge in callers.items():
                    for layer, w in owners(caller).items():
                        result[layer] = (result.get(layer, 0.0)
                                         + w * edge[3] / weight)
            else:
                result = {NON_REPRO: 1.0}
            visiting.discard(func)
            memo[func] = result
            return result

        spent = {layer: 0.0 for layer in (*LAYERS, OTHER_REPRO, NON_REPRO)}
        total = 0.0
        for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
            total += tottime
            layer = self._layer(func[0])
            if layer is not None:
                spent[layer] += tottime
                continue
            weight = sum(edge[2] for edge in callers.values())
            if weight <= 0:
                spent[NON_REPRO] += tottime
                continue
            for caller, edge in callers.items():
                for owner, w in owners(caller).items():
                    spent[owner] += tottime * w * edge[2] / weight
        return spent, total
