"""Declarative fault plans.

The paper's loadd exists because nodes fail: it "broadcasts load every
2-3 s and marks silent peers unavailable" (§2.3/§3.1).  A
:class:`FaultPlan` makes those failures a first-class, reproducible
input to any run: a list of :class:`Fault` events, each flipping some
piece of cluster state at a scheduled simulated time and (optionally)
flipping it back later.

Five fault kinds are modelled:

``crash``
    The node dies abruptly: it refuses new connections, resets the
    connections it was serving, and its loadd falls silent.  With an end
    time the node restarts and rejoins (loadd re-announces it).
``partition``
    The cluster interconnect splits into disjoint groups; transfers
    (including loadd broadcasts and NFS reads) between groups are lost
    until the partition heals.
``slowdisk``
    A node's disk channel degrades by a factor (bad sectors, a rebuild,
    a failing drive).  The node does *not* know: loadd keeps advertising
    the nominal bandwidth, so brokers misprice it — the silent
    degradation scenario.
``mute``
    Heartbeat loss: the node keeps serving but its loadd stops
    broadcasting, so peers stale it out after the suspicion/staleness
    timeouts even though it is healthy.
``corrupt``
    Load-report corruption: broadcasts go out with the CPU load scaled
    by a factor (default 0 — the node advertises itself idle and
    attracts the herd).

Plans are parsed from the compact CLI spec string by
:meth:`FaultPlan.parse` (see ``docs/FAULTS.md`` for the grammar) or
built from :class:`Fault` values, ``FaultPlan([Fault(...), ...])``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Fault", "FaultPlan", "FaultSpecError", "FAULT_KINDS"]

#: Every fault kind a plan may contain.
FAULT_KINDS = ("crash", "partition", "slowdisk", "mute", "corrupt")

#: kinds that target a single node (partition targets the fabric)
_NODE_KINDS = ("crash", "slowdisk", "mute", "corrupt")

#: kinds whose end time is required (the others may be permanent)
_WINDOW_KINDS = ("partition", "slowdisk")


class FaultSpecError(ValueError):
    """Raised for an unparseable or inconsistent fault specification."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: what breaks, when, and (optionally) when it heals.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    start:
        Simulated time the fault is injected.
    end:
        Simulated time it is reverted; ``None`` means permanent (only
        legal for ``crash``, ``mute`` and ``corrupt``).
    node:
        Target node id for the single-node kinds; ``None`` for
        ``partition``.
    factor:
        ``slowdisk``: bandwidth divisor (4.0 = quarter speed).
        ``corrupt``: multiplier applied to the broadcast CPU load
        (0.0 = advertise idle).
    groups:
        ``partition``: explicit node groups; empty means "split the
        cluster into two halves", resolved when the plan is attached.
    """

    kind: str
    start: float
    end: Optional[float] = None
    node: Optional[int] = None
    factor: Optional[float] = None
    groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(f"unknown fault kind {self.kind!r}; "
                                 f"choose from {FAULT_KINDS}")
        if self.start < 0:
            raise FaultSpecError(f"{self.kind}: negative start {self.start}")
        if self.end is not None and self.end <= self.start:
            raise FaultSpecError(
                f"{self.kind}: end {self.end} must be after start {self.start}")
        if self.kind in _NODE_KINDS:
            if self.node is None or self.node < 0:
                raise FaultSpecError(f"{self.kind}: needs a target node id")
        elif self.node is not None:
            raise FaultSpecError(f"{self.kind}: does not target a single node")
        if self.kind in _WINDOW_KINDS and self.end is None:
            raise FaultSpecError(f"{self.kind}: needs an end time "
                                 f"(use start-end)")
        if self.kind == "slowdisk":
            if self.factor is None or self.factor < 1.0:
                raise FaultSpecError(
                    f"slowdisk: factor must be >= 1, got {self.factor}")
        if self.kind == "corrupt" and self.factor is not None \
                and self.factor < 0:
            raise FaultSpecError(
                f"corrupt: factor must be >= 0, got {self.factor}")

    @property
    def window(self) -> str:
        """Human-readable time window, e.g. ``"30s"`` or ``"10-20s"``."""
        if self.end is None:
            return f"{self.start:g}s"
        return f"{self.start:g}-{self.end:g}s"

    def describe(self) -> str:
        """One-line description for reports and traces."""
        if self.kind == "partition":
            groups = ("halves" if not self.groups else
                      "|".join(",".join(f"n{n}" for n in g)
                               for g in self.groups))
            return f"partition[{groups}] @ {self.window}"
        extra = ""
        if self.kind == "slowdisk":
            extra = f" x{self.factor:g}"
        elif self.kind == "corrupt":
            extra = f" x{0.0 if self.factor is None else self.factor:g}"
        return f"{self.kind} n{self.node}{extra} @ {self.window}"


# grammar pieces for the compact spec strings (see docs/FAULTS.md)
_NODE_RE = re.compile(r"^n(\d+)$")
_TIME_RE = re.compile(r"^(\d+(?:\.\d+)?)(?:-(\d+(?:\.\d+)?))?$")


def _parse_time(text: str, clause: str) -> tuple[float, Optional[float]]:
    """Parse ``30`` or ``10-20`` into (start, end)."""
    m = _TIME_RE.match(text)
    if not m:
        raise FaultSpecError(f"bad time window {text!r} in {clause!r} "
                             f"(expected START or START-END)")
    start = float(m.group(1))
    end = float(m.group(2)) if m.group(2) is not None else None
    return start, end


def _parse_node(text: str, clause: str) -> int:
    m = _NODE_RE.match(text)
    if not m:
        raise FaultSpecError(f"bad node {text!r} in {clause!r} "
                             f"(expected nID, e.g. n2)")
    return int(m.group(1))


def _split_factor(text: str) -> tuple[str, Optional[float]]:
    """Split a trailing ``xFACTOR`` off a time window."""
    if "x" in text:
        window, _, factor = text.rpartition("x")
        try:
            return window, float(factor)
        except ValueError:
            raise FaultSpecError(f"bad factor in {text!r}") from None
    return text, None


@dataclass
class FaultPlan:
    """An ordered collection of :class:`Fault` events.

    Plans are plain data: they do not touch a cluster until a
    :class:`~repro.faults.injector.FaultInjector` attaches them.
    """

    faults: list[Fault] = field(default_factory=list)

    # -- construction helpers -------------------------------------------------
    def add(self, fault: Fault) -> "FaultPlan":
        """Append one fault (chainable)."""
        self.faults.append(fault)
        return self

    # -- parsing ---------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a comma-separated CLI fault spec.

        Examples (full grammar in ``docs/FAULTS.md``)::

            crash:n2@30            crash node 2 at t=30, no restart
            crash:n2@30-50         crash at 30, restart at 50
            partition:10-20        split into halves for [10, 20)
            partition:n0+n1|n2@10-20   explicit groups (+ within, | between)
            slowdisk:n1@5-25x4     node 1's disk 4x slower for [5, 25)
            mute:n3@10-30          heartbeat loss for [10, 30)
            corrupt:n2@10-30x0     broadcast zero CPU load for [10, 30)
        """
        plan = cls()
        for clause in filter(None, (c.strip() for c in spec.split(","))):
            kind, sep, rest = clause.partition(":")
            if not sep or not rest:
                raise FaultSpecError(f"bad fault clause {clause!r} "
                                     f"(expected KIND:ARGS)")
            if kind == "partition":
                groups_text, sep, window_text = rest.partition("@")
                if not sep:             # bare window: default halves
                    groups_text, window_text = "", groups_text
                start, end = _parse_time(window_text, clause)
                groups = tuple(
                    tuple(_parse_node(n, clause) for n in g.split("+"))
                    for g in groups_text.split("|")) if groups_text else ()
                plan.add(Fault("partition", start=start, end=end,
                               groups=groups))
                continue
            node_text, sep, window_text = rest.partition("@")
            if not sep:
                raise FaultSpecError(f"bad fault clause {clause!r} "
                                     f"(expected {kind}:nID@WINDOW)")
            node = _parse_node(node_text, clause)
            window_text, factor = _split_factor(window_text)
            start, end = _parse_time(window_text, clause)
            if kind == "corrupt" and factor is None:
                factor = 0.0
            plan.add(Fault(kind, start=start, end=end, node=node,
                           factor=factor))
        if not plan.faults:
            raise FaultSpecError(f"empty fault spec {spec!r}")
        return plan

    # -- validation / introspection -------------------------------------------
    def validate(self, num_nodes: int) -> None:
        """Check every fault's targets fit a cluster of ``num_nodes``."""
        for fault in self.faults:
            if fault.node is not None and fault.node >= num_nodes:
                raise FaultSpecError(
                    f"{fault.describe()}: node {fault.node} out of range "
                    f"(cluster has {num_nodes} nodes)")
            for group in fault.groups:
                for n in group:
                    if n >= num_nodes:
                        raise FaultSpecError(
                            f"{fault.describe()}: node {n} out of range "
                            f"(cluster has {num_nodes} nodes)")

    def describe(self) -> str:
        """One line per fault, in start-time order."""
        return "\n".join(f.describe()
                         for f in sorted(self.faults, key=lambda f: f.start))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self.faults)} faults>"
