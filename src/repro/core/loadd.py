"""loadd — the load daemon (§3.1, Figure 3).

"The loadd daemon is responsible for updating the system CPU, network and
disk load information periodically (every 2-3 seconds), and marking those
processors which have not responded in a preset period of time as
unavailable.  When a processor leaves or joins the resource pool, the
loadd daemon will be aware of the change."

Each node runs one daemon.  Every period it samples its own CPU run queue
(averaged over the window, like a Unix load average), disk channel and
fabric port, installs the sample in its own view, and ships it to every
peer over the real interconnect — so broadcasts cost CPU ops and network
bytes that show up in the §4.3 overhead measurements.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..cache import CacheDirectory, CacheReport, hot_set
from ..cluster.network import ClusterNetwork
from ..cluster.node import Node
from ..obs import MetricsRegistry, Tracer
from ..sim import Event, Process, Simulator
from .costmodel import CostParameters
from .loadinfo import ClusterView, LoadSnapshot

__all__ = ["LoadDaemon"]


class LoadDaemon:
    """One node's load daemon."""

    def __init__(self, sim: Simulator, node: Node, view: ClusterView,
                 peer_views: dict[int, ClusterView], network: ClusterNetwork,
                 params: Optional[CostParameters] = None,
                 tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 directory: Optional[CacheDirectory] = None,
                 peer_directories: Optional[dict[int, CacheDirectory]] = None
                 ) -> None:
        self.sim = sim
        self.node = node
        self.view = view
        self.peer_views = peer_views
        self.network = network
        self.params = params or CostParameters()
        self.tracer = tracer
        #: cooperative cache (docs/CACHING.md): when wired, every broadcast
        #: piggybacks this node's hot cached-file set; ``peer_directories``
        #: maps peer id -> the directory a delivered report lands in
        self.directory = directory
        self.peer_directories = peer_directories or {}
        #: shared run-wide registry this daemon publishes its ``loadd.*``
        #: counters/gauges into (replaces per-report counter scraping)
        self._counters = (registry.counters("loadd")
                          if registry is not None else None)
        self._bytes_gauge = (registry.gauge("loadd.bytes_sent")
                             if registry is not None else None)
        self.broadcasts = 0
        self.messages_sent = 0
        self.bytes_sent = 0.0
        #: fault hook — heartbeat loss: the node keeps serving but its
        #: daemon stops broadcasting, so peers stale it out (docs/FAULTS.md)
        self.muted = False
        #: fault hook — load-report corruption: outgoing broadcasts carry
        #: cpu_load scaled by this factor (0.0 advertises an idle node and
        #: attracts the herd); the daemon's *own* view keeps the truth
        self.corrupt_factor: Optional[float] = None
        self._prev_cpu_integral = node.cpu.population_integral()
        self._prev_time = sim.now
        self._proc = None

    # -- sampling -----------------------------------------------------------
    def sample(self) -> LoadSnapshot:
        """Take a local load sample (window-averaged CPU run queue)."""
        now = self.sim.now
        integral = self.node.cpu.population_integral()
        window = now - self._prev_time
        if window > 0:
            cpu_load = (integral - self._prev_cpu_integral) / window
        else:
            cpu_load = self.node.cpu_load()
        self._prev_cpu_integral = integral
        self._prev_time = now
        return self._snapshot(cpu_load, now)

    def probe(self) -> LoadSnapshot:
        """Instantaneous local reading, without touching the broadcast
        window state.  The broker uses this for the *local* candidate:
        a node's own /proc is always current; only peer information is
        stale."""
        return self._snapshot(self.node.cpu_load(), self.sim.now)

    def _snapshot(self, cpu_load: float, now: float) -> LoadSnapshot:
        # Net load = fabric-port transfers plus in-flight client responses
        # on the NIC (unless the NIC *is* the shared bus, as on the NOW,
        # where node_load() already counts them).
        net_load = float(self.network.node_load(self.node.id))
        if self.node.nic is not getattr(self.network, "bus", None):
            net_load += float(self.node.nic.njobs)
        return LoadSnapshot(
            node=self.node.id,
            cpu_load=cpu_load,
            disk_load=float(self.node.disk.channel_load),
            net_load=net_load,
            cpu_speed=self.node.cpu_speed,
            disk_bandwidth=self.node.disk.bandwidth,
            timestamp=now,
        )

    # -- the daemon loop -----------------------------------------------------
    def start(self) -> Process:
        """Spawn the periodic broadcast process (returns it)."""
        if self._proc is None:
            self._proc = self.sim.spawn(self._run(), name=f"loadd@{self.node.id}")
        return self._proc

    def broadcast_now(self) -> LoadSnapshot:
        """One immediate sample + broadcast over the real interconnect."""
        snap = self.sample()
        self.view.update(snap)
        self._ship(snap)
        return snap

    def bootstrap(self) -> LoadSnapshot:
        """Install an initial sample in *every* view synchronously.

        At daemon start-up each node reads the static pool membership from
        the configuration file, so views begin fully populated rather
        than empty (otherwise the first requests would see a one-node
        cluster)."""
        snap = self.sample()
        for view in self.peer_views.values():
            view.update(snap)
        return snap

    def _run(self) -> Iterator[Event]:
        # Stagger daemons slightly by node id so broadcasts do not collide
        # on the interconnect in lock-step (deterministic, not random).
        yield self.sim.timeout(0.01 * self.node.id)
        while True:
            yield self.sim.timeout(self.params.loadd_period)
            if not self.node.alive or self.muted:
                # A departed (or heartbeat-lost) node is silent; peers
                # stale it out.
                continue
            snap = self.sample()
            self.view.update(snap)
            # The sampling/packing work is real CPU time (§4.3 charges
            # ~0.2 % of the CPU to load monitoring).
            yield self.node.compute(self.params.loadd_ops, category="loadd")
            self._ship(snap)

    def availability(self) -> dict[int, str]:
        """This daemon's current three-tier availability view
        ("available" | "suspect" | "unavailable" per known node)."""
        return self.view.availability(self.sim.now)

    def _ship(self, snap: LoadSnapshot) -> None:
        if self.corrupt_factor is not None:
            # Corruption happens on the wire: peers receive the doctored
            # report while this node's own view keeps the true sample.
            snap = snap._replace(cpu_load=snap.cpu_load * self.corrupt_factor)
        self.broadcasts += 1
        if self.tracer is not None and self.tracer.active:
            self.tracer.emit(self.sim.now, "loadd", f"loadd-{self.node.id}",
                             "broadcast", cpu=round(snap.cpu_load, 3),
                             disk=snap.disk_load, net=snap.net_load)
        # Piggyback the hot cached-file set on the same datagram: the
        # directory costs no extra messages, only cache_report_bytes per
        # advertised path (0 by default — it rides in the report's slack).
        report: Optional[CacheReport] = None
        msg_bytes = self.params.loadd_msg_bytes
        if self.directory is not None:
            report = CacheReport(
                node=self.node.id,
                paths=hot_set(self.node.cache.entries(),
                              self.params.cache_hot_set),
                timestamp=self.sim.now)
            self.directory.update(report)
            msg_bytes += self.params.cache_report_bytes * len(report.paths)
        # One batched fan-out: the fabric drives every peer delivery from
        # a single process instead of spawning one per peer per period.
        peers = [pid for pid in self.peer_views if pid != self.node.id]
        events = self.network.multicast(self.node.id, peers, msg_bytes,
                                        tag="loadd")
        if self._counters is not None:
            self._counters.incr("broadcasts")
            self._counters.incr("messages", by=len(peers))
        if self._bytes_gauge is not None:
            self._bytes_gauge.add(msg_bytes * len(peers))
        for peer_id, done in zip(peers, events):
            self.messages_sent += 1
            self.bytes_sent += msg_bytes

            def deliver(_ev: Event,
                        view: ClusterView = self.peer_views[peer_id],
                        s: LoadSnapshot = snap,
                        directory: Optional[CacheDirectory] =
                        self.peer_directories.get(peer_id),
                        r: Optional[CacheReport] = report) -> None:
                view.update(s)
                if directory is not None and r is not None:
                    directory.update(r)

            if done.callbacks is None:
                deliver(done)
            else:
                done.callbacks.append(deliver)
