"""SWEBCluster — the facade wiring Figure 2 together.

One object builds the whole logical server: the multicomputer hardware
(nodes, disks, caches, interconnect), the distributed file system, the
round-robin DNS front end, one httpd + broker + oracle + loadd per node,
and the metrics plumbing.  This is the main entry point of the library::

    from repro import SWEBCluster, meiko_cs2

    cluster = SWEBCluster(meiko_cs2(), policy="sweb", seed=1)
    cluster.add_file("/maps/sb.tif", 1.5e6, home=0)
    cluster.run(until=cluster.fetch("/maps/sb.tif"))
    print(cluster.metrics.response_summary())

Always bound :meth:`run` (by an event, process or time): the loadd
daemons broadcast forever, so an unbounded run never quiesces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from ..cluster.topology import BuiltCluster, ClusterSpec, meiko_cs2
from ..obs import MetricsRegistry, Tracer
from ..sim import Process, RandomStreams, Simulator

if TYPE_CHECKING:
    from ..faults import FaultInjector, FaultPlan
from ..cache import CacheDirectory, FileHeat, ReplicationDaemon
from ..web.cgi import CGIRegistry
from ..web.client import Client, ClientProfile, UCSB_CLIENT
from ..web.dns import RoundRobinDNS
from ..web.metrics import Metrics
from ..web.server import HTTPServer
from .broker import Broker
from .costmodel import CostModel, CostParameters
from .loadd import LoadDaemon
from .loadinfo import ClusterView
from .oracle import Oracle
from .policies import SchedulingPolicy, make_policy

__all__ = ["SWEBCluster"]


class SWEBCluster:
    """The complete SWEB logical server on a simulated multicomputer."""

    def __init__(self,
                 spec: Optional[ClusterSpec] = None,
                 policy: Union[str, SchedulingPolicy] = "sweb",
                 params: Optional[CostParameters] = None,
                 oracle: Optional[Oracle] = None,
                 cgi_registry: Optional[CGIRegistry] = None,
                 seed: int = 0,
                 backlog: int = 64,
                 dns_ttl: float = 0.0,
                 tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 start_loadd: bool = True,
                 dispatcher: Optional[int] = None,
                 sim: Optional[Simulator] = None,
                 built: Optional[BuiltCluster] = None) -> None:
        """``dispatcher`` enables the centralized design §3.1 *rejected*:
        every request enters through that one node, whose scheduler
        re-routes it.  "We did not take this approach mainly because …
        the single central distributor becomes a single point of failure"
        — see experiment X7 for the quantified reasons.

        ``sim``/``built`` let a host (the geo tier) share one event loop
        across several clusters and substitute a pre-built hardware
        stack; by default the cluster owns a fresh Simulator and builds
        its own hardware from ``spec``."""
        self.spec = spec or meiko_cs2()
        self.params = params or CostParameters()
        self.rng = RandomStreams(seed=seed)
        self.sim = sim if sim is not None else Simulator()
        #: spans and event log (docs/TRACING.md); observation-only, so
        #: attaching one never alters simulation results
        self.tracer = tracer
        #: run-wide metrics registry every subsystem publishes into
        #: (http.* from Metrics, loadd.*, cache.*; docs/METRICS.md)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = Metrics(registry=self.registry)
        #: real HTML markup for pages (filled by html_site_corpus; used by
        #: the BrowserSession model to discover inline images)
        self.page_markup: dict[str, str] = {}

        if built is None:
            built = self.spec.build(self.sim)
        self.built = built
        self.nodes = built.nodes
        self.network = built.network
        self.fs = built.fs
        # The file system is built by the topology layer, which knows
        # nothing about observability; hand it the tracer afterwards so
        # NFS/replica/peer-cache reads can record spans.
        self.fs.tracer = tracer
        self.internet = built.internet

        self.cgi = cgi_registry if cgi_registry is not None else CGIRegistry()
        self.oracle = (oracle if oracle is not None
                       else Oracle(cgi_registry=self.cgi))
        if isinstance(policy, str):
            policy = make_policy(policy, rng=self.rng)
        self.policy = policy
        self.cost_model = CostModel(
            self.params, net_bandwidth=self.spec.network_bandwidth,
            mem_bandwidth=min(n.mem.rate for n in self.nodes))

        if dispatcher is not None:
            if not 0 <= dispatcher < len(self.nodes):
                raise ValueError(f"bad dispatcher node {dispatcher}")
            zone = [dispatcher]
        else:
            zone = [n.id for n in self.nodes]
        self.dispatcher = dispatcher
        self.dns = RoundRobinDNS(self.sim, zone, ttl=dns_ttl)

        # Cooperative cache & replication (docs/CACHING.md): one directory
        # per node fed by piggybacked loadd reports; heat counters and the
        # replication daemon only when proactive replication is enabled.
        self.directories: dict[int, CacheDirectory] = {}
        self.heat: Optional[FileHeat] = None
        self.replicator: Optional[ReplicationDaemon] = None
        if self.params.coop_cache:
            self.directories = {
                n.id: CacheDirectory(owner=n.id,
                                     ttl=self.params.cache_report_ttl,
                                     local_probe=n.cache.__contains__)
                for n in self.nodes}
        if self.params.replicate:
            self.heat = FileHeat()
            self.replicator = ReplicationDaemon.from_params(
                self.sim, self.nodes, self.fs, self.network, self.heat,
                self.params, tracer=tracer, registry=self.registry)

        # Per-node distributed state: view, broker, httpd, loadd.
        self.views: dict[int, ClusterView] = {
            n.id: ClusterView(owner=n.id,
                              staleness_timeout=self.params.staleness_timeout,
                              suspicion_timeout=self.params.suspicion_timeout)
            for n in self.nodes}
        self.loadds: dict[int, LoadDaemon] = {
            n.id: LoadDaemon(self.sim, n, self.views[n.id], self.views,
                             self.network, params=self.params,
                             tracer=tracer, registry=self.registry,
                             directory=self.directories.get(n.id),
                             peer_directories=self.directories)
            for n in self.nodes}
        self.brokers: dict[int, Broker] = {
            n.id: Broker(self.sim, n.id, self.views[n.id], self.oracle,
                         self.cost_model, self.fs, tracer=tracer,
                         local_probe=self.loadds[n.id].probe,
                         directory=self.directories.get(n.id))
            for n in self.nodes}
        self.servers: dict[int, HTTPServer] = {
            n.id: HTTPServer(self.sim, n, self.fs, self.internet,
                             self.policy, self.brokers[n.id],
                             cgi_registry=self.cgi, params=self.params,
                             backlog=backlog, tracer=tracer,
                             heat=self.heat)
            for n in self.nodes}
        # Wire the httpds together for the forwarding mechanism.
        for server in self.servers.values():
            server.peers = self.servers
        # Populate every view before the first request, then go periodic.
        for daemon in self.loadds.values():
            daemon.bootstrap()
            if start_loadd:
                daemon.start()
        if self.replicator is not None and start_loadd:
            self.replicator.start()

    # -- content ----------------------------------------------------------
    def add_file(self, path: str, size: float, home: int) -> None:
        """Place one document on a node's disk."""
        self.fs.add_file(path, size, home)

    def add_striped_file(self, path: str, size: float,
                         stripes: Sequence[int]) -> None:
        """Stripe one document across several nodes' disks (§1's parallel
        retrieval from inexpensive disks)."""
        self.fs.add_striped_file(path, size, stripes)

    def add_cgi(self, path: str, cpu_ops: float, output_bytes: float,
                reads_path: Optional[str] = None) -> None:
        """Register a CGI program (visible to both httpd and oracle)."""
        self.cgi.add(path, cpu_ops, output_bytes, reads_path=reads_path)

    # -- clients ---------------------------------------------------------------
    def client(self, profile: ClientProfile = UCSB_CLIENT,
               timeout: float = 120.0) -> Client:
        """A client handle bound to this cluster's metrics."""
        return Client(self, profile=profile, timeout=timeout)

    def fetch(self, path: str, profile: ClientProfile = UCSB_CLIENT,
              timeout: float = 120.0) -> Process:
        """Convenience: spawn a single request, return its Process."""
        return self.client(profile, timeout=timeout).fetch(path)

    # -- execution ------------------------------------------------------------
    def run(self, until: Any = None) -> Any:
        """Advance the simulation to ``until`` (an event, process or
        time).  Pass one whenever loadd is running: the periodic
        broadcasts keep the event queue non-empty forever, so an
        unbounded run only quiesces with ``start_loadd=False``."""
        return self.sim.run(until=until)

    # -- membership churn --------------------------------------------------------
    def node_leave(self, node_id: int, update_dns: bool = False) -> None:
        """Take a node out of the pool.  loadd goes silent, so peers mark
        it unavailable after the staleness timeout; DNS keeps rotating to
        it unless ``update_dns`` (administrators are slower than loadd)."""
        self.nodes[node_id].leave()
        if update_dns:
            self.dns.deregister(node_id)

    def node_join(self, node_id: int, update_dns: bool = True) -> None:
        """Bring a node (back) into the pool."""
        self.nodes[node_id].join()
        self.loadds[node_id].broadcast_now()
        if update_dns:
            self.dns.register(node_id)

    def node_crash(self, node_id: int) -> None:
        """Abrupt failure: unlike :meth:`node_leave`, in-flight connections
        are reset (clients see an immediate failure, not a 120 s silence)
        and loadd falls silent so peers stale the node out.  DNS keeps
        rotating to it — a crash never files a zone update."""
        self.nodes[node_id].crash()
        self.servers[node_id].reset_connections()

    def node_restart(self, node_id: int) -> None:
        """Recover from a crash: the node rejoins and its loadd
        immediately re-announces so peers un-stale it without waiting a
        full broadcast period."""
        self.nodes[node_id].restart()
        self.loadds[node_id].broadcast_now()

    # -- fault injection --------------------------------------------------------
    def attach_faults(
            self, plan: Union[str, "FaultPlan"]) -> "FaultInjector":
        """Attach and start a :class:`~repro.faults.plan.FaultPlan` (or a
        CLI spec string for one); returns the running injector."""
        from ..faults import FaultInjector, FaultPlan

        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        return FaultInjector(self, plan).start()

    def availability(self, node_id: int = 0) -> dict[int, str]:
        """Node ``node_id``'s three-tier availability view of the cluster
        ("available" | "suspect" | "unavailable"; see ClusterView)."""
        return self.loadds[node_id].availability()

    def total_fallbacks(self) -> int:
        """Stale-load round-robin fallbacks across all brokers."""
        return sum(b.fallbacks for b in self.brokers.values())

    # -- accounting (§4.3) ---------------------------------------------------------
    def cpu_seconds_by_category(self) -> dict[str, float]:
        """Total CPU seconds per work category across all nodes."""
        totals: dict[str, float] = {}
        for node in self.nodes:
            for cat, secs in node.cpu_seconds_by_category().items():
                totals[cat] = totals.get(cat, 0.0) + secs
        return totals

    def cpu_share_by_category(self) -> dict[str, float]:
        """Fraction of the cluster's *elapsed* CPU capacity used per
        category — the paper's "% of CPU cycles" numbers."""
        elapsed = self.sim.now
        if elapsed <= 0:
            return {}
        capacity = elapsed * len(self.nodes)
        return {cat: secs / capacity
                for cat, secs in self.cpu_seconds_by_category().items()}

    def total_redirections(self) -> int:
        return sum(s.redirects_issued for s in self.servers.values())

    # -- cooperative cache (docs/CACHING.md) -----------------------------------
    def total_replications(self) -> int:
        """Hot-file copies landed by the replication daemon (0 when off)."""
        return self.replicator.replications if self.replicator else 0

    def __repr__(self) -> str:
        return (f"<SWEBCluster {self.spec.name!r} nodes={len(self.nodes)} "
                f"policy={self.policy.name!r}>")
