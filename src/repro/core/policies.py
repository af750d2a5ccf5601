"""Scheduling policies: SWEB and the baselines it is evaluated against.

§4.2 compares three strategies —

* **round-robin** ("the NCSA approach that uniformly distributes requests
  to nodes"): DNS already rotated the request here, so the node simply
  serves it;
* **file locality** ("purely exploit the file locality by assigning
  requests to the nodes that own the requested files");
* **SWEB** — the broker's multi-faceted argmin.

Plus two extra baselines used by our ablations: **cpu-only**, the
single-faceted strategy of the load-balancing literature the paper argues
against ([SHK95]), and **random** — and the modern cluster-scheduling zoo
run by the heterogeneous tournament (docs/SCHEDULING.md): **jsq** (join
the shortest queue), **po2** (power of two choices), **lwl** (least work
left, in speed-normalised seconds), and **chash** (locality-aware
rendezvous hashing with a bounded-load spill).

The canonical list of names lives in :mod:`repro.sched.registry`; this
module implements every one of them as a strategy object.
"""

from __future__ import annotations

from typing import Optional

from ..sched import policy_names, preference_order
from ..sim import RandomStreams
from .broker import Broker, BrokerDecision
from .loadinfo import LoadSnapshot

__all__ = [
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "FileLocalityPolicy",
    "SWEBPolicy",
    "CPUOnlyPolicy",
    "RandomPolicy",
    "JoinShortestQueuePolicy",
    "PowerOfTwoPolicy",
    "LeastWorkLeftPolicy",
    "ConsistentHashPolicy",
    "make_policy",
    "POLICY_NAMES",
]


def _job_count(snap: LoadSnapshot) -> float:
    """Believed jobs in service on a node: the sum over the three
    channels a request can occupy (CPU run queue, disk reads in flight,
    fabric-port transfers)."""
    return snap.cpu_load + snap.disk_load + snap.net_load


class SchedulingPolicy:
    """Decides which node serves a request that DNS delivered to ``broker.node_id``.

    Every policy answers through the broker's :class:`BrokerDecision`
    shape so the server code is policy-agnostic; only SWEB actually runs
    the cost model.
    """

    name = "abstract"
    #: whether the server should charge broker-analysis CPU time
    consults_broker = False

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        raise NotImplementedError

    def _trivial(self, broker: Broker, path: str, chosen: int) -> BrokerDecision:
        file_size = broker.fs.locate(path).size if broker.fs.exists(path) else 0.0
        task = broker.oracle.characterize(path, file_size)
        return BrokerDecision(chosen=chosen, local=broker.node_id,
                              estimates=(), task=task)


class RoundRobinPolicy(SchedulingPolicy):
    """Serve wherever DNS rotation landed the request (NCSA's approach)."""

    name = "round-robin"

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        return self._trivial(broker, path, broker.node_id)


class FileLocalityPolicy(SchedulingPolicy):
    """Always move the request to the node owning the file."""

    name = "file-locality"

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        chosen = broker.node_id
        if broker.fs.exists(path):
            chosen = broker.fs.locate(path).home
        return self._trivial(broker, path, chosen)


class SWEBPolicy(SchedulingPolicy):
    """The paper's contribution: multi-faceted minimum-completion-time."""

    name = "sweb"
    consults_broker = True

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        return broker.choose_server(path, client_latency)


class CPUOnlyPolicy(SchedulingPolicy):
    """Single-faceted baseline: minimise the believed CPU run queue.

    This is the classic load-balancing heuristic ([SHK95], [GDI93]); it
    ignores disks and the interconnect entirely, which is exactly what
    §1 argues is insufficient for WWW workloads.
    """

    name = "cpu-only"
    consults_broker = True

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        now = broker.sim.now
        candidates = broker.view.available(now)
        if not candidates:
            return self._trivial(broker, path, broker.node_id)
        best = min(candidates,
                   key=lambda s: (s.cpu_load / s.cpu_speed,
                                  s.node != broker.node_id, s.node))
        decision = self._trivial(broker, path, best.node)
        if decision.redirected:
            broker.view.inflate_cpu(best.node, broker.cost_model.params.delta)
        return decision


class RandomPolicy(SchedulingPolicy):
    """Uniform random placement (a sanity-check baseline)."""

    name = "random"

    def __init__(self, rng: Optional[RandomStreams] = None) -> None:
        self.rng = rng or RandomStreams(seed=0)

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        now = broker.sim.now
        candidates = broker.view.available(now)
        if not candidates:
            return self._trivial(broker, path, broker.node_id)
        idx = self.rng.integers("random-policy", 0, len(candidates))
        return self._trivial(broker, path, candidates[idx].node)


class JoinShortestQueuePolicy(SchedulingPolicy):
    """Join the shortest queue: argmin of believed jobs in service.

    The classic supermarket model.  Count-based, so it treats a
    half-speed node and a double-speed node as interchangeable — the
    blind spot :class:`LeastWorkLeftPolicy` fixes on heterogeneous
    clusters (docs/SCHEDULING.md).
    """

    name = "jsq"
    consults_broker = True

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        now = broker.sim.now
        candidates = broker.view.available(now)
        if not candidates:
            return self._trivial(broker, path, broker.node_id)
        best = min(candidates,
                   key=lambda s: (_job_count(s),
                                  s.node != broker.node_id, s.node))
        decision = self._trivial(broker, path, best.node)
        if decision.redirected:
            broker.view.inflate_cpu(best.node, broker.cost_model.params.delta)
        return decision


class PowerOfTwoPolicy(SchedulingPolicy):
    """Power of two choices: sample two nodes, join the shorter queue.

    Two uniform samples plus one comparison buys an exponential
    improvement over purely random placement (Mitzenmacher's
    supermarket result) while reading only two nodes' state.
    """

    name = "po2"
    consults_broker = True

    def __init__(self, rng: Optional[RandomStreams] = None) -> None:
        self.rng = rng or RandomStreams(seed=0)

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        now = broker.sim.now
        candidates = broker.view.available(now)
        if not candidates:
            return self._trivial(broker, path, broker.node_id)
        if len(candidates) == 1:
            return self._trivial(broker, path, candidates[0].node)
        i = self.rng.integers("po2-policy", 0, len(candidates))
        j = self.rng.integers("po2-policy", 0, len(candidates) - 1)
        if j >= i:                       # second sample over the rest
            j += 1
        best = min(candidates[i], candidates[j],
                   key=lambda s: (_job_count(s),
                                  s.node != broker.node_id, s.node))
        decision = self._trivial(broker, path, best.node)
        if decision.redirected:
            broker.view.inflate_cpu(best.node, broker.cost_model.params.delta)
        return decision


class LeastWorkLeftPolicy(SchedulingPolicy):
    """Least work left: argmin of outstanding *work* in seconds.

    Prices each node's believed backlog at that node's own speed —
    queued CPU jobs at ``cpu_speed``, queued reads at
    ``disk_bandwidth`` — using the oracle's characterisation of the
    current request as the typical queued job.  Dividing by speed is
    the whole point: a 2x node with four queued jobs drains them as
    fast as a 1x node drains two, so fast nodes absorb proportionally
    more load on heterogeneous clusters.
    """

    name = "lwl"
    consults_broker = True

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        now = broker.sim.now
        candidates = broker.view.available(now)
        if not candidates:
            return self._trivial(broker, path, broker.node_id)
        file_size = (broker.fs.locate(path).size
                     if broker.fs.exists(path) else 0.0)
        task = broker.oracle.characterize(path, file_size)
        cpu_ops = max(task.cpu_ops, 1.0)
        disk_bytes = max(task.disk_bytes, 0.0)

        def backlog_seconds(s: LoadSnapshot) -> float:
            return (s.cpu_load * cpu_ops / s.cpu_speed
                    + s.disk_load * disk_bytes / s.disk_bandwidth)

        best = min(candidates,
                   key=lambda s: (backlog_seconds(s),
                                  s.node != broker.node_id, s.node))
        decision = BrokerDecision(chosen=best.node, local=broker.node_id,
                                  estimates=(), task=task)
        if decision.redirected:
            broker.view.inflate_cpu(best.node, broker.cost_model.params.delta)
        return decision


class ConsistentHashPolicy(SchedulingPolicy):
    """Locality-aware consistent hashing with a bounded-load spill.

    Rendezvous-hashes the path to an owner node so each node's page
    cache accumulates a stable shard of the corpus; when the owner's
    believed queue exceeds the bounded-load threshold (2x the cluster
    mean), the request spills down the deterministic preference order
    to the first underloaded node (cf. consistent hashing with bounded
    loads, arXiv:1608.01350).
    """

    name = "chash"
    consults_broker = True

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        now = broker.sim.now
        candidates = broker.view.available(now)
        if not candidates:
            return self._trivial(broker, path, broker.node_id)
        counts = {s.node: _job_count(s) for s in candidates}
        bound = 2.0 * (sum(counts.values()) / len(counts)) + 1.0
        order = preference_order(path, len(broker.fs.nodes))
        chosen = None
        for node in order:
            if node not in counts:
                continue
            if chosen is None:           # owner = first available in order
                chosen = node
            if counts[node] <= bound:
                chosen = node
                break
        if chosen is None:
            chosen = candidates[0].node
        decision = self._trivial(broker, path, chosen)
        if decision.redirected:
            broker.view.inflate_cpu(chosen, broker.cost_model.params.delta)
        return decision


#: Per-client policy names, in canonical order — derived from the
#: registry (:mod:`repro.sched.registry`), never hand-listed.
POLICY_NAMES = policy_names()


def make_policy(name: str, rng: Optional[RandomStreams] = None) -> SchedulingPolicy:
    """Factory used by experiment configs."""
    table = {
        "round-robin": RoundRobinPolicy,
        "file-locality": FileLocalityPolicy,
        "sweb": SWEBPolicy,
        "cpu-only": CPUOnlyPolicy,
        "jsq": JoinShortestQueuePolicy,
        "lwl": LeastWorkLeftPolicy,
        "chash": ConsistentHashPolicy,
    }
    if name == "random":
        return RandomPolicy(rng=rng)
    if name == "po2":
        return PowerOfTwoPolicy(rng=rng)
    if name not in table:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    return table[name]()
