"""Proactive hot-file replication driven by request-skew detection.

A Zipf workload concentrates most requests on a few documents; if those
documents share a home node, that node's disk and cache thrash while the
rest of the cluster idles.  The :class:`ReplicationDaemon` watches the
cluster-wide :class:`~repro.cache.stats.FileHeat` counters, and whenever
a file's served byte volume rises above ``skew`` times the per-file mean
it copies the file into the page caches of the least-loaded peers that
lack it — over
the *real* simulated interconnect, with the NFS protocol penalty, so the
replication traffic it trades against load balance (arXiv:1610.04513)
shows up in the fabric byte counters like any other transfer.  Target
caches evict LRU entries under capacity pressure exactly as they do for
demand-filled files; files larger than a target's cache are never
shipped.
"""

from __future__ import annotations

from typing import (Generator, Iterator, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from ..cluster.filesystem import DistributedFileSystem
from ..cluster.network import ClusterNetwork
from ..cluster.node import Node
from ..obs import MetricsRegistry, Tracer
from ..sim import Event, Process, Simulator
from .stats import FileHeat

if TYPE_CHECKING:  # pragma: no cover
    from ..core.costmodel import CostParameters

__all__ = ["ReplicationDaemon"]


class ReplicationDaemon:
    """Periodic skew detector + hot-file replicator for one cluster.

    One daemon serves the whole cluster (it is the scheduler's agent,
    not a per-node service): every ``period`` seconds it ranks the heat
    counters, plans at most ``max_per_cycle`` copies toward a target of
    ``factor`` cache-resident replicas per hot file, and pays for each
    copy with a real interconnect transfer before installing the file in
    the destination's page cache.
    """

    def __init__(self, sim: Simulator, nodes: Sequence[Node],
                 fs: DistributedFileSystem, network: ClusterNetwork,
                 heat: FileHeat, period: float = 2.0, factor: int = 3,
                 skew: float = 2.0, max_per_cycle: int = 4,
                 tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if period <= 0:
            raise ValueError("replication period must be positive")
        if factor < 1:
            raise ValueError("replication factor must be >= 1")
        if skew < 1.0:
            raise ValueError("replication skew threshold must be >= 1")
        if max_per_cycle < 1:
            raise ValueError("max_per_cycle must be >= 1")
        self.sim = sim
        self.nodes = list(nodes)
        self.fs = fs
        self.network = network
        self.heat = heat
        self.period = float(period)
        self.factor = int(factor)
        self.skew = float(skew)
        self.max_per_cycle = int(max_per_cycle)
        self.tracer = tracer
        #: shared run-wide registry the daemon publishes its ``cache.*``
        #: counters into (None = standalone use; attributes below still
        #: carry the same totals)
        self._counters = (registry.counters("cache")
                          if registry is not None else None)
        self.replications = 0
        self.bytes_replicated = 0.0
        self.cycles = 0
        self._in_flight: set[Tuple[str, int]] = set()
        self._proc: Optional[Process] = None

    @classmethod
    def from_params(cls, sim: Simulator, nodes: Sequence[Node],
                    fs: DistributedFileSystem, network: ClusterNetwork,
                    heat: FileHeat, params: "CostParameters",
                    tracer: Optional[Tracer] = None,
                    registry: Optional[MetricsRegistry] = None,
                    ) -> "ReplicationDaemon":
        """Build a daemon from the knobs on :class:`CostParameters`."""
        return cls(sim, nodes, fs, network, heat,
                   period=params.replication_period,
                   factor=params.replication_factor,
                   skew=params.replication_skew,
                   max_per_cycle=params.replication_max_per_cycle,
                   tracer=tracer, registry=registry)

    # -- planning -----------------------------------------------------------
    def _node_load(self, node: Node) -> float:
        """Scheduling pressure on ``node`` (CPU run queue + fabric port)."""
        return node.cpu_load() + float(self.network.node_load(node.id))

    def plan(self) -> List[Tuple[str, int]]:
        """Deterministically choose ``(path, target_node)`` copies.

        A file qualifies when its served byte volume is at least ``skew``
        times the mean over all files seen — bytes, not request counts,
        because byte volume is what saturates a home node's disk and what
        a copy costs to ship.  For each qualifying file (hottest first)
        the daemon tops replica count up toward ``factor``, preferring
        the least-loaded alive nodes that do not already hold the file
        (ties break on node id).  Striped files are skipped — their
        chunks are already spread.
        """
        mean = self.heat.mean_bytes()
        if mean <= 0:
            return []
        out: List[Tuple[str, int]] = []
        budget = self.max_per_cycle
        for path, heat_bytes in self.heat.top_bytes(4 * self.max_per_cycle):
            if budget <= 0:
                break
            if heat_bytes < self.skew * mean:
                break  # byte-sorted ranking: nothing below qualifies
            try:
                meta = self.fs.locate(path)
            except FileNotFoundError:
                continue
            if meta.is_striped:
                continue
            holders = {node.id for node in self.nodes if path in node.cache}
            if not holders:
                # Nobody has it in RAM: copying would mean a disk read on
                # the already-hot home node.  A demand fill will cache it
                # within a period or two; spread it then, at RAM speed.
                continue
            missing = self.factor - len(holders)
            if missing <= 0:
                # Already at `factor` copies: nothing to rank (the usual
                # case once the hot set has spread).
                continue
            candidates = sorted(
                (node for node in self.nodes
                 if node.alive and node.id not in holders
                 and node.id != meta.home
                 and meta.size <= node.cache.capacity
                 and (path, node.id) not in self._in_flight),
                key=lambda node: (self._node_load(node), node.id))
            for node in candidates[:missing]:
                if budget <= 0:
                    break
                out.append((path, node.id))
                budget -= 1
        return out

    # -- execution -----------------------------------------------------------
    def _source_node(self, meta, target: int) -> Node:
        """Where to copy from: home if it caches the file, else the
        least-loaded cached holder (chain replication), else home anyway
        — the disk-read fallback for a copy evicted since planning."""
        home_node = self.nodes[meta.home]
        if meta.path in home_node.cache:
            return home_node
        holders = sorted(
            (node for node in self.nodes
             if node.alive and node.id != target
             and meta.path in node.cache),
            key=lambda node: (self._node_load(node), node.id))
        return holders[0] if holders else home_node

    def replicate(self, path: str, target: int) -> Process:
        """Copy ``path`` into ``target``'s page cache, paying real cost.

        The bytes are produced at a cache-resident source — the home
        node, or the least-loaded replica holder (chain replication) —
        at memory bandwidth, shipped over the interconnect with the NFS
        penalty, and only then installed in the target cache.  If every
        cached copy was evicted between planning and execution the home
        disk is read instead (demand-filling the home cache).  The
        returned event fires when the copy lands.
        """
        meta = self.fs.locate(path)
        target_node = self.nodes[target]
        self._in_flight.add((path, target))

        def pump() -> Generator[Event, object, str]:
            source = self._source_node(meta, target)
            if source.cache.lookup(path):
                yield source.read_from_cache(meta.size, tag=path)
            else:
                yield source.disk.read(meta.size, tag=path)
                source.cache.insert(path, meta.size)
            wire = meta.size * (1.0 + self.fs.remote_penalty)
            yield self.network.transfer(source.id, target, wire,
                                        tag="replicate")
            self._in_flight.discard((path, target))
            target_node.cache.insert(path, meta.size)
            self.replications += 1
            self.bytes_replicated += meta.size
            if self._counters is not None:
                self._counters.incr("replications")
                self._counters.incr("bytes_replicated", by=int(meta.size))
            if self.tracer is not None and self.tracer.active:
                self.tracer.emit(self.sim.now, "cache", "replicator",
                                 "replicate", path=path,
                                 src=source.id, dst=target, bytes=meta.size)
            return path

        return self.sim.spawn(pump(), name=f"replicate:{path}->{target}")

    # -- the daemon loop -----------------------------------------------------
    def start(self) -> Process:
        """Spawn the periodic replication process (returns it)."""
        if self._proc is None:
            self._proc = self.sim.spawn(self._run(), name="replicator")
        return self._proc

    def run_cycle(self) -> List[Tuple[str, int]]:
        """One immediate plan+execute pass (also used by the loop)."""
        self.cycles += 1
        planned = self.plan()
        for path, target in planned:
            self.replicate(path, target)
        return planned

    def _run(self) -> Iterator[Event]:
        while True:
            yield self.sim.timeout(self.period)
            self.run_cycle()
