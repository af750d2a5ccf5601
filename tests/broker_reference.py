"""Reference broker: the per-candidate pricing that one-pass pricing replaced.

:class:`ReferenceBroker.choose_server`, :meth:`ReferenceCostModel.estimate`
(with the four term methods it calls) and :class:`ReferenceCostEstimate`
are the code :mod:`repro.core.broker` and :mod:`repro.core.costmodel`
shipped before pricing became one pass per decision, kept verbatim (only
the class names differ).  So are the rule scan of
:meth:`ReferenceOracle.characterize` (before the per-path rule memo) and
the ``sorted()`` walk of :func:`reference_available` (before
``ClusterView`` kept its node order).  ``tests/test_broker_oracle.py``
drives both brokers through the same random decisions and requires the
same winner, the same per-candidate terms, the same Δ-inflated view, the
same counters and the same trace lines.  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster.filesystem import DistributedFileSystem
from repro.core.adaptive_oracle import AdaptiveOracle
from repro.core.broker import BrokerDecision
from repro.core.costmodel import CostParameters
from repro.core.loadinfo import ClusterView, LoadSnapshot
from repro.core.oracle import Oracle, TaskEstimate
from repro.obs import Tracer
from repro.sim import Simulator

__all__ = ["ReferenceCostEstimate", "ReferenceCostModel", "ReferenceOracle",
           "ReferenceAdaptiveOracle", "ReferenceBroker",
           "reference_available"]


@dataclass(frozen=True)
class ReferenceCostEstimate:
    """The broker's prediction for one candidate server."""

    node: int
    t_redirection: float
    t_data: float
    t_cpu: float
    t_net: float

    @property
    def total(self) -> float:
        return self.t_redirection + self.t_data + self.t_cpu + self.t_net


class ReferenceCostModel:
    """Evaluates t_s for candidate servers from (stale) load snapshots."""

    def __init__(self, params: Optional[CostParameters] = None,
                 net_bandwidth: float = 40e6,
                 mem_bandwidth: float = 80e6,
                 wan_bandwidth: Optional[float] = None,
                 wan_latency: float = 0.0) -> None:
        self.params = params or CostParameters()
        self.net_bandwidth = float(net_bandwidth)
        self.mem_bandwidth = float(mem_bandwidth)
        self.wan_bandwidth = float(wan_bandwidth) if wan_bandwidth else None
        self.wan_latency = float(wan_latency)

    # -- individual terms ---------------------------------------------------
    def t_redirection(self, candidate: int, local: int,
                      client_latency: float) -> float:
        if not self.params.use_redirection_term:
            return 0.0
        if candidate == local:
            return 0.0
        if self.params.assumed_client_latency is not None:
            client_latency = self.params.assumed_client_latency
        return 2.0 * client_latency + self.params.connect_time

    def t_data(self, est: TaskEstimate, candidate: LoadSnapshot,
               home: Optional[LoadSnapshot], file_home: Optional[int],
               cached: bool = False, wan: bool = False) -> float:
        if not self.params.use_data_term or est.disk_bytes <= 0:
            return 0.0
        if cached and self.params.use_cache_term:
            return est.disk_bytes / self.mem_bandwidth
        if wan and self.wan_bandwidth is not None:
            return self.wan_latency + est.disk_bytes / self.wan_bandwidth
        if file_home is None:
            return 0.0
        if file_home == candidate.node:
            b_disk = candidate.disk_bandwidth / (1.0 + candidate.disk_load)
            return est.disk_bytes / b_disk
        # Remote: the home disk feeds the interconnect; the slower governs.
        if home is not None:
            b_disk = home.disk_bandwidth / (1.0 + home.disk_load)
        else:
            # Home's load unknown (stale): assume its disk unloaded.
            b_disk = candidate.disk_bandwidth
        b_net = self.net_bandwidth / (1.0 + candidate.net_load)
        return est.disk_bytes / min(b_disk, b_net)

    def t_cpu(self, est: TaskEstimate, candidate: LoadSnapshot,
              local: bool = False) -> float:
        if not self.params.use_cpu_term:
            return 0.0
        # est.cpu_ops already includes the oracle's per-byte send estimate.
        ops = est.cpu_ops
        if not local:
            ops += self.params.fork_ops + self.params.preprocess_ops
        return ops * (1.0 + candidate.cpu_load) / candidate.cpu_speed

    def t_net(self, est: TaskEstimate) -> float:
        if not self.params.use_net_term:
            return 0.0
        return est.output_bytes / self.params.internet_bandwidth

    # -- the full t_s ----------------------------------------------------------
    def estimate(self, est: TaskEstimate, candidate: LoadSnapshot,
                 home: Optional[LoadSnapshot], file_home: Optional[int],
                 local: int, client_latency: float,
                 cached: bool = False,
                 wan: bool = False) -> ReferenceCostEstimate:
        """Predict the completion time if ``candidate`` serves the request."""
        return ReferenceCostEstimate(
            node=candidate.node,
            t_redirection=self.t_redirection(candidate.node, local, client_latency),
            t_data=self.t_data(est, candidate, home, file_home, cached=cached,
                               wan=wan),
            t_cpu=self.t_cpu(est, candidate, local=(candidate.node == local)),
            t_net=self.t_net(est),
        )


class ReferenceOracle(Oracle):
    """:class:`~repro.core.oracle.Oracle` with the rule scan on every call."""

    def characterize(self, path: str, file_size: float) -> TaskEstimate:
        if self.cgi.is_cgi(path):
            prog = self.cgi.lookup(path)
            return TaskEstimate(cpu_ops=prog.cpu_ops, disk_bytes=0.0,
                                output_bytes=prog.output_bytes, is_cgi=True)
        for rule in self.rules:
            if rule.matches(path):
                return TaskEstimate(
                    cpu_ops=rule.base_ops + rule.ops_per_byte * file_size,
                    disk_bytes=file_size,
                    output_bytes=file_size,
                    is_cgi=False)
        raise AssertionError("unreachable: catch-all rule guaranteed")


class ReferenceAdaptiveOracle(AdaptiveOracle, ReferenceOracle):
    """The learned correction on top of the reference rule scan
    (``AdaptiveOracle.characterize`` reaches it through ``super()``)."""


def reference_available(view: ClusterView, now: float) -> list[LoadSnapshot]:
    """Snapshots of every node currently believed available."""
    out = []
    for node in sorted(view._snapshots):
        snap = view.get(node, now)
        if snap is not None:
            out.append(snap)
    return out


class ReferenceBroker:
    """Per-node argmin scheduler over the multi-faceted cost model."""

    def __init__(self, sim: Simulator, node_id: int, view: ClusterView,
                 oracle: Oracle, cost_model: ReferenceCostModel,
                 fs: DistributedFileSystem,
                 tracer: Optional[Tracer] = None,
                 local_probe: Optional[Callable[[], LoadSnapshot]] = None,
                 directory=None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.view = view
        self.oracle = oracle
        self.cost_model = cost_model
        self.fs = fs
        self.tracer = tracer
        self.local_probe = local_probe
        self.directory = directory
        self.decisions = 0
        self.redirections = 0
        self.fallbacks = 0

    def choose_server(self, path: str, client_latency: float) -> BrokerDecision:
        now = self.sim.now
        self.decisions += 1
        params = self.cost_model.params
        if params.graceful_degradation:
            peer_age = self.view.freshest_peer_age(now)
            if peer_age is None or peer_age > params.fallback_staleness:
                self.fallbacks += 1
                if self.tracer is not None:
                    self.tracer.emit(now, "sched", f"broker-{self.node_id}",
                                     "stale_fallback", path=path,
                                     peer_age=(round(peer_age, 3)
                                               if peer_age is not None
                                               else None))
                file_size = (self.fs.locate(path).size
                             if self.fs.exists(path) else 0.0)
                return BrokerDecision(
                    chosen=self.node_id, local=self.node_id, estimates=(),
                    task=self.oracle.characterize(path, file_size))
        # (a) Where does the file live?
        file_home: Optional[int] = None
        file_size = 0.0
        file_wan = False
        if self.fs.exists(path):
            meta = self.fs.locate(path)
            file_home, file_size = meta.home, meta.size
            file_wan = meta.wan
        # (b) What does it demand?
        task = self.oracle.characterize(path, file_size)
        # (c) Price every available candidate.  The local node is priced
        # from an instantaneous probe when one is wired in.
        candidates = reference_available(self.view, now)
        if params.graceful_degradation:
            # Drop suspects: a silent-but-not-yet-stale peer may be dead,
            # and redirecting a client into a dead node costs a drop.
            candidates = [c for c in candidates
                          if not self.view.suspected(c.node, now)]
        if self.local_probe is not None:
            fresh = self.local_probe()
            candidates = [fresh if c.node == self.node_id else c
                          for c in candidates]
            if all(c.node != self.node_id for c in candidates):
                candidates.append(fresh)
        home_snap = None
        if file_home is not None:
            home_snap = self.view.get(file_home, now)
            if (self.local_probe is not None and file_home == self.node_id):
                home_snap = fresh
        directory = self.directory
        estimates = tuple(
            self.cost_model.estimate(
                task, cand, home_snap, file_home,
                local=self.node_id, client_latency=client_latency,
                cached=(directory is not None and file_size > 0
                        and directory.holds(cand.node, path, now)),
                wan=file_wan)
            for cand in candidates)
        if not estimates:
            # Nobody else is known: serve locally.
            decision = BrokerDecision(chosen=self.node_id, local=self.node_id,
                                      estimates=(), task=task)
            return decision
        # (d) Argmin with deterministic tie-breaking.
        best = min(estimates,
                   key=lambda e: (e.total, e.node != self.node_id, e.node))
        decision = BrokerDecision(chosen=best.node, local=self.node_id,
                                  estimates=estimates, task=task)
        if decision.redirected:
            self.redirections += 1
            # Δ-inflation: guard against unsynchronized overloading.
            self.view.inflate_cpu(best.node, self.cost_model.params.delta)
        if self.tracer is not None:
            self.tracer.emit(now, "sched", f"broker-{self.node_id}",
                             "choose_server", path=path, winner=best.node,
                             t_s=round(best.total, 6),
                             candidates=len(estimates))
        return decision
