"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan` to a live cluster.

One injector attaches to one :class:`~repro.core.sweb.SWEBCluster`.  Each
fault in the plan becomes a simulator process that sleeps until the
fault's start time, flips the relevant state — on the :class:`Node`, the
:class:`ClusterNetwork`, a :class:`Disk`, or a :class:`LoadDaemon` — and,
for windowed faults, flips it back at the end time.  Every application
and reversal is appended to :attr:`FaultInjector.log` and emitted on the
cluster's trace under category ``"fault"``, so experiments and tests can
assert exactly what happened and when.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .plan import Fault, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.sweb import SWEBCluster

__all__ = ["FaultInjector", "InjectionRecord"]


@dataclass(frozen=True)
class InjectionRecord:
    """One state flip the injector performed."""

    time: float
    action: str      # "apply" | "revert"
    fault: Fault

    def format(self) -> str:
        return f"[{self.time:10.3f}] {self.action:>6} {self.fault.describe()}"


class FaultInjector:
    """Drives a fault plan against a running cluster.

    Usage::

        plan = FaultPlan.parse("crash:n2@30-50,partition:10-20")
        injector = FaultInjector(cluster, plan)
        injector.start()
        cluster.run()
        print(injector.report())
    """

    def __init__(self, cluster: "SWEBCluster", plan: FaultPlan) -> None:
        plan.validate(len(cluster.nodes))
        self.cluster = cluster
        self.plan = plan
        self.log: list[InjectionRecord] = []
        self._procs: list = []

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "FaultInjector":
        """Spawn one driver process per fault (idempotent)."""
        if self._procs:
            return self
        sim = self.cluster.sim
        for i, fault in enumerate(self.plan):
            self._procs.append(
                sim.spawn(self._drive(fault), name=f"fault{i}.{fault.kind}"))
        return self

    def _drive(self, fault: Fault):
        sim = self.cluster.sim
        if fault.start > sim.now:
            yield sim.timeout(fault.start - sim.now)
        self._apply(fault)
        if fault.end is not None:
            yield sim.timeout(fault.end - sim.now)
            self._revert(fault)

    # -- state flips ----------------------------------------------------------
    def _record(self, action: str, fault: Fault) -> None:
        now = self.cluster.sim.now
        self.log.append(InjectionRecord(time=now, action=action, fault=fault))
        if self.cluster.tracer is not None and self.cluster.tracer.active:
            self.cluster.tracer.emit(now, "fault", "injector", action,
                                     kind=fault.kind, target=fault.node,
                                     window=fault.window)

    def _apply(self, fault: Fault) -> None:
        cluster = self.cluster
        if fault.kind == "crash":
            cluster.node_crash(fault.node)
        elif fault.kind == "partition":
            cluster.network.partition(self._groups(fault))
        elif fault.kind == "slowdisk":
            cluster.nodes[fault.node].disk.degrade(fault.factor)
        elif fault.kind == "mute":
            cluster.loadds[fault.node].muted = True
        elif fault.kind == "corrupt":
            cluster.loadds[fault.node].corrupt_factor = fault.factor
        self._record("apply", fault)

    def _revert(self, fault: Fault) -> None:
        cluster = self.cluster
        if fault.kind == "crash":
            cluster.node_restart(fault.node)
        elif fault.kind == "partition":
            cluster.network.heal()
            # A healed fabric carries heartbeats again immediately: every
            # daemon re-announces so views converge without waiting out a
            # full broadcast period.
            for daemon in cluster.loadds.values():
                if daemon.node.alive and not daemon.muted:
                    daemon.broadcast_now()
        elif fault.kind == "slowdisk":
            cluster.nodes[fault.node].disk.restore()
        elif fault.kind == "mute":
            cluster.loadds[fault.node].muted = False
            if cluster.nodes[fault.node].alive:
                cluster.loadds[fault.node].broadcast_now()
        elif fault.kind == "corrupt":
            cluster.loadds[fault.node].corrupt_factor = None
        self._record("revert", fault)

    def _groups(self, fault: Fault) -> tuple[tuple[int, ...], ...]:
        """Resolve a partition's groups (default: split into two halves)."""
        if fault.groups:
            return fault.groups
        n = len(self.cluster.nodes)
        half = max(1, n // 2)
        return (tuple(range(half)), tuple(range(half, n)))

    # -- reporting -------------------------------------------------------------
    def report(self) -> str:
        """Chronological log of every state flip performed so far."""
        if not self.log:
            return "(no faults applied)"
        return "\n".join(rec.format() for rec in self.log)

    def applied(self, kind: str) -> int:
        """How many faults of ``kind`` have been applied so far."""
        return sum(1 for rec in self.log
                   if rec.action == "apply" and rec.fault.kind == kind)

    def __repr__(self) -> str:
        return (f"<FaultInjector faults={len(self.plan)} "
                f"applied={len(self.log)}>")
