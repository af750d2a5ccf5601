"""GeoSystem — every site's SWEBCluster sharing one event loop.

The facade mirrors :class:`~repro.core.sweb.SWEBCluster` one level up:
it builds the origin cluster first, then each edge cluster with its
file system swapped for a :class:`GeoFileSystem` bound to the origin
namespace and the site's WAN uplink, wires a geo-wide
:class:`~repro.cache.stats.FileHeat` into every httpd, and runs the
:class:`GeoPlacementDaemon` above them all.  Because every cluster is
handed the *same* :class:`~repro.sim.Simulator`, cross-site transfers,
placement traffic and per-site request handling interleave in one
deterministic event order.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache import FileHeat
from ..cluster.network import Link
from ..core.costmodel import CostParameters
from ..core.sweb import SWEBCluster
from ..obs import Tracer
from ..sim import Simulator
from ..workload.corpus import Corpus
from .daemon import GeoPlacementDaemon
from .fs import GeoFileSystem
from .routing import GeoDNS
from .spec import GeoSpec, geo3

__all__ = ["GeoSystem"]

MB = 1e6


class GeoSystem:
    """All sites of a :class:`GeoSpec`, live in one simulation."""

    def __init__(self, spec: Optional[GeoSpec] = None,
                 params: Optional[CostParameters] = None,
                 seed: int = 0,
                 graceful: bool = False,
                 edge_budget_bytes: float = 16 * MB,
                 tracer: Optional[Tracer] = None,
                 start_daemons: bool = True) -> None:
        """``tracer`` records the event log of every site and of the
        placement daemon; it must have ``max_requests=0``, since each
        site's cluster numbers its requests from 0 and their span traces
        would collide."""
        if tracer is not None and tracer.max_requests != 0:
            raise ValueError("a GeoSystem tracer records events only: "
                             "build it with max_requests=0")
        self.spec = spec or geo3()
        self.params = params or CostParameters()
        self.seed = seed
        self.graceful = graceful
        self.edge_budget_bytes = float(edge_budget_bytes)
        self.sim = Simulator()
        self.tracer = tracer

        #: geo-wide per-file heat: every site's httpds feed one tally, so
        #: the placement daemon sees global popularity, not one site's
        self.heat = FileHeat()

        origin_site = self.spec.site(self.spec.origin)
        self.clusters: Dict[str, SWEBCluster] = {}
        self.edge_fs: Dict[str, GeoFileSystem] = {}
        self.uplinks: Dict[str, Link] = {}

        origin_built = origin_site.cluster.build(self.sim)
        self.origin = SWEBCluster(
            spec=origin_site.cluster, params=self.params,
            seed=self._site_seed(0), tracer=tracer, sim=self.sim,
            built=origin_built)
        self.clusters[origin_site.name] = self.origin

        for idx, edge in enumerate(s for s in self.spec.sites
                                   if s.name != self.spec.origin):
            built = edge.cluster.build(self.sim)
            wan = self.spec.link(self.spec.origin, edge.name)
            uplink = Link(self.sim, bandwidth=wan.bandwidth,
                          latency=wan.latency, name=f"wan.{edge.name}")
            geo_fs = GeoFileSystem(
                self.sim, built.nodes, built.network,
                remote_penalty=edge.cluster.nfs_penalty,
                origin_fs=self.origin.fs, uplink=uplink,
                budget_bytes=self.edge_budget_bytes, site=edge.name)
            built.fs = geo_fs
            cluster = SWEBCluster(
                spec=edge.cluster, params=self.params,
                seed=self._site_seed(idx + 1), tracer=tracer, sim=self.sim,
                built=built)
            # Price edge cache misses as WAN fetches (docs/GEO.md): the
            # broker's t_data then reflects the link, not a local disk.
            cluster.cost_model.wan_bandwidth = wan.bandwidth
            cluster.cost_model.wan_latency = wan.latency
            self.clusters[edge.name] = cluster
            self.edge_fs[edge.name] = geo_fs
            self.uplinks[edge.name] = uplink

        # One heat tally across every site's servers (and any intra-site
        # replication daemon) so cross-site placement sees global demand.
        for cluster in self.clusters.values():
            for server in cluster.servers.values():
                server.heat = self.heat
            if cluster.heat is not None:
                cluster.heat = self.heat
            if cluster.replicator is not None:
                cluster.replicator.heat = self.heat

        self.dns = GeoDNS(self.spec, self.clusters, graceful=graceful)
        self.placementd = GeoPlacementDaemon(
            self.sim, self.spec, self.edge_fs, self.heat, tracer=tracer)
        if start_daemons and self.edge_fs:
            self.placementd.start()

    def _site_seed(self, index: int) -> int:
        """Derived per-site seed — pure arithmetic, no RNG draw."""
        return (self.seed * 1_000_003 + index * 7_919 + 13) % (2 ** 31)

    # -- content -----------------------------------------------------------
    def install_corpus(self, corpus: Corpus) -> None:
        """Authoritative copies at the origin; catalog entries at edges."""
        corpus.install(self.origin)
        for fs in self.edge_fs.values():
            for doc in corpus.documents:
                fs.add_origin_file(doc.path, doc.size)

    # -- execution ---------------------------------------------------------
    def run(self, until=None):
        return self.sim.run(until=until)

    # -- aggregates --------------------------------------------------------
    def edge_hit_rate(self) -> float:
        """Fraction of edge-site reads served without crossing the WAN."""
        hits = sum(fs.edge_hits for fs in self.edge_fs.values())
        misses = sum(fs.wan_reads for fs in self.edge_fs.values())
        total = hits + misses
        return hits / total if total else 0.0

    def wan_bytes(self) -> float:
        """Demand-miss bytes plus placement bytes shipped over WAN."""
        return (sum(fs.wan_bytes for fs in self.edge_fs.values())
                + self.placementd.bytes_placed)

    def total_placements(self) -> int:
        return self.placementd.placements

    def __repr__(self) -> str:
        return (f"<GeoSystem {self.spec.name!r} sites={len(self.clusters)} "
                f"hit_rate={self.edge_hit_rate():.2f}>")
