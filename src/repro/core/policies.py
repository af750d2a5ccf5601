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

from typing import Callable, Iterable, Optional

from ..sched import policy_names, preference_order
from ..sim import RandomStreams
from .broker import Broker, BrokerDecision
from .loadinfo import LoadSnapshot
from .oracle import TaskEstimate

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


def _least(candidates: Iterable[LoadSnapshot], local: int,
           load: Callable[[LoadSnapshot], float]) -> int:
    """The candidate with the least ``load``; ties prefer the local node,
    then the lowest id."""
    return min(candidates, key=lambda s: (load(s), s.node != local,
                                          s.node)).node


class SchedulingPolicy:
    """Decides which node serves a request that DNS delivered to ``broker.node_id``.

    :meth:`decide` does the work every policy shares: read the nodes the
    broker's load view believes available, characterise the task once,
    serve locally when no node is believed available, answer in the
    broker's :class:`BrokerDecision` shape (so the server code is
    policy-agnostic), and charge a redirect target Δ of believed CPU
    load (§3.2).  A policy states only its choice, in :meth:`pick`.
    """

    name = "abstract"
    #: whether the server should charge broker-analysis CPU time
    consults_broker = False
    #: whether :meth:`pick` reads the load view; a view-blind policy is
    #: offered no candidates, never falls back and never inflates
    reads_view = True

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        local = broker.node_id
        candidates = (broker.view.available(broker.sim.now)
                      if self.reads_view else [])
        fs = broker.fs
        task = broker.oracle.characterize(
            path, fs.locate(path).size if fs.exists(path) else 0.0)
        if candidates or not self.reads_view:
            chosen = self.pick(broker, path, task, candidates)
        else:                            # nothing believed available
            chosen = local
        if chosen != local and self.inflates(candidates):
            broker.view.inflate_cpu(chosen, broker.cost_model.params.delta)
        return BrokerDecision(chosen=chosen, local=local, estimates=(),
                              task=task)

    def pick(self, broker: Broker, path: str, task: TaskEstimate,
             candidates: list[LoadSnapshot]) -> int:
        """The node that serves ``path``: the policy's whole rule."""
        raise NotImplementedError

    def inflates(self, candidates: list[LoadSnapshot]) -> bool:
        """Whether a redirect charges its target Δ (§3.2)."""
        return self.reads_view


class _SampledPolicy(SchedulingPolicy):
    """A policy that draws its choice from a named random substream."""

    def __init__(self, rng: Optional[RandomStreams] = None) -> None:
        self.rng = rng or RandomStreams(seed=0)


class RoundRobinPolicy(SchedulingPolicy):
    """Serve wherever DNS rotation landed the request (NCSA's approach)."""

    name = "round-robin"
    reads_view = False

    def pick(self, broker: Broker, path: str, task: TaskEstimate,
             candidates: list[LoadSnapshot]) -> int:
        return broker.node_id


class FileLocalityPolicy(SchedulingPolicy):
    """Always move the request to the node owning the file."""

    name = "file-locality"
    reads_view = False

    def pick(self, broker: Broker, path: str, task: TaskEstimate,
             candidates: list[LoadSnapshot]) -> int:
        fs = broker.fs
        return fs.locate(path).home if fs.exists(path) else broker.node_id


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

    def pick(self, broker: Broker, path: str, task: TaskEstimate,
             candidates: list[LoadSnapshot]) -> int:
        return _least(candidates, broker.node_id,
                      lambda s: s.cpu_load / s.cpu_speed)


class RandomPolicy(_SampledPolicy):
    """Uniform random placement (a sanity-check baseline); never
    inflates."""

    name = "random"

    def pick(self, broker: Broker, path: str, task: TaskEstimate,
             candidates: list[LoadSnapshot]) -> int:
        idx = self.rng.integers("random-policy", 0, len(candidates))
        return candidates[idx].node

    def inflates(self, candidates: list[LoadSnapshot]) -> bool:
        return False


class JoinShortestQueuePolicy(SchedulingPolicy):
    """Join the shortest queue: argmin of believed jobs in service.

    The classic supermarket model.  Count-based, so it treats a
    half-speed node and a double-speed node as interchangeable — the
    blind spot :class:`LeastWorkLeftPolicy` fixes on heterogeneous
    clusters (docs/SCHEDULING.md).
    """

    name = "jsq"
    consults_broker = True

    def pick(self, broker: Broker, path: str, task: TaskEstimate,
             candidates: list[LoadSnapshot]) -> int:
        return _least(candidates, broker.node_id, _job_count)


class PowerOfTwoPolicy(_SampledPolicy):
    """Power of two choices: sample two nodes, join the shorter queue.

    Two uniform samples plus one comparison buys an exponential
    improvement over purely random placement (Mitzenmacher's
    supermarket result) while reading only two nodes' state.  A lone
    candidate is taken without a draw and without inflation.
    """

    name = "po2"
    consults_broker = True

    def pick(self, broker: Broker, path: str, task: TaskEstimate,
             candidates: list[LoadSnapshot]) -> int:
        if len(candidates) == 1:
            return candidates[0].node
        i = self.rng.integers("po2-policy", 0, len(candidates))
        j = self.rng.integers("po2-policy", 0, len(candidates) - 1)
        if j >= i:                       # second sample over the rest
            j += 1
        return _least((candidates[i], candidates[j]), broker.node_id,
                      _job_count)

    def inflates(self, candidates: list[LoadSnapshot]) -> bool:
        return len(candidates) > 1


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

    def pick(self, broker: Broker, path: str, task: TaskEstimate,
             candidates: list[LoadSnapshot]) -> int:
        cpu_ops = max(task.cpu_ops, 1.0)
        disk_bytes = max(task.disk_bytes, 0.0)
        return _least(candidates, broker.node_id,
                      lambda s: (s.cpu_load * cpu_ops / s.cpu_speed
                                 + s.disk_load * disk_bytes
                                 / s.disk_bandwidth))


class ConsistentHashPolicy(SchedulingPolicy):
    """Locality-aware consistent hashing with a bounded-load spill.

    Rendezvous-hashes the path to an owner node so each node's page
    cache accumulates a stable shard of the corpus.  The owner keeps the
    request while its believed job count is within the bounded-load
    threshold, ``load <= 2 x mean + 1`` (twice the cluster mean plus
    one job); past it, the request spills down the deterministic
    preference order to the first node within it (cf. consistent
    hashing with bounded loads, arXiv:1608.01350).
    """

    name = "chash"
    consults_broker = True

    def pick(self, broker: Broker, path: str, task: TaskEstimate,
             candidates: list[LoadSnapshot]) -> int:
        counts = {s.node: _job_count(s) for s in candidates}
        bound = 2.0 * (sum(counts.values()) / len(counts)) + 1.0
        # No count is negative, so the least-loaded candidate is within
        # the bound and the walk always ends at a candidate.
        order = preference_order(path, len(broker.fs.nodes))
        return next(node for node in order
                    if node in counts and counts[node] <= bound)


#: Per-client policy names, in canonical order — derived from the
#: registry (:mod:`repro.sched.registry`), never hand-listed.
POLICY_NAMES = policy_names()

_CLASSES = {cls.name: cls for cls in (
    RoundRobinPolicy, FileLocalityPolicy, SWEBPolicy, CPUOnlyPolicy,
    RandomPolicy, JoinShortestQueuePolicy, PowerOfTwoPolicy,
    LeastWorkLeftPolicy, ConsistentHashPolicy)}


def make_policy(name: str, rng: Optional[RandomStreams] = None) -> SchedulingPolicy:
    """Factory used by experiment configs."""
    cls = _CLASSES.get(name)
    if cls is None:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    return cls(rng=rng) if issubclass(cls, _SampledPolicy) else cls()
