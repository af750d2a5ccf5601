"""An edge site's view of the origin's namespace.

Every document's authoritative copy lives on the origin cluster's disks;
an edge cluster carries only a *catalog* (``FileMeta`` entries flagged
``wan=True``, homed at the edge gateway node) plus whatever the
placement daemon or demand pull-through has parked in its page caches.
A read at an edge node therefore resolves in cost order:

1. the reading node's own page cache (an edge hit at RAM speed);
2. any peer cache inside the site (edge hit plus one fabric hop);
3. the WAN: the origin serves the file from its own cache/disk, the
   bytes cross the uplink :class:`~repro.cluster.network.Link` with the
   NFS penalty, and — budget permitting — the file is installed in the
   reading node's cache so the next request is an edge hit.

The per-site budget bounds how many *geo replica bytes* may sit in the
site's RAM at once; demand fills and daemon placements are gated by the
same accounting, so a zero-budget edge never caches and every read pays
the WAN — the clean lower bound the X13 sweep anchors on.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.filesystem import (
    DistributedFileSystem,
    FileMeta,
    ReadGenerator,
    ReadOutcome,
)
from ..cluster.network import ClusterNetwork, Link
from ..cluster.node import Node
from ..obs import Span
from ..sim import Simulator

__all__ = ["GeoFileSystem"]


class GeoFileSystem(DistributedFileSystem):
    """A :class:`DistributedFileSystem` whose misses cross a WAN link."""

    def __init__(self, sim: Simulator, nodes: list[Node],
                 network: ClusterNetwork, remote_penalty: float,
                 origin_fs: DistributedFileSystem, uplink: Link,
                 budget_bytes: float, site: str = "edge") -> None:
        super().__init__(sim, nodes, network, remote_penalty=remote_penalty)
        if budget_bytes < 0:
            raise ValueError(f"negative geo budget: {budget_bytes}")
        self.origin_fs = origin_fs
        self.uplink = uplink
        self.budget_bytes = float(budget_bytes)
        self.site = site
        #: cache misses that crossed the WAN (and the bytes they moved)
        self.wan_reads = 0
        self.wan_bytes = 0.0
        #: reads satisfied inside the site (own or peer cache)
        self.edge_hits = 0
        #: pull-through installs admitted under the byte budget
        self.edge_installs = 0
        #: installs refused because the budget was exhausted
        self.budget_rejections = 0

    # -- namespace --------------------------------------------------------
    def add_origin_file(self, path: str, size: float) -> FileMeta:
        """Register an origin-homed document in this site's catalog.

        No disk space is allocated here — the authoritative bytes live at
        the origin; the local ``home`` is the gateway node 0, which is
        where the cost model charges a miss."""
        if path in self._files:
            raise ValueError(f"duplicate path: {path!r}")
        if size < 0:
            raise ValueError(f"negative size for {path!r}: {size}")
        meta = FileMeta(path=path, size=float(size), home=0, wan=True)
        self._files[path] = meta
        return meta

    # -- budget accounting -------------------------------------------------
    def resident_replica_bytes(self) -> float:
        """Geo-replica bytes currently in any of this site's page caches.

        Self-correcting by construction: evictions free budget the next
        time anyone asks, with no shadow ledger to drift out of sync."""
        total = 0.0
        for path, meta in self._files.items():
            if not meta.wan:
                continue
            if any(path in node.cache for node in self.nodes):
                total += meta.size
        return total

    def admits(self, size: float) -> bool:
        """True if installing ``size`` more replica bytes fits the budget."""
        return self.resident_replica_bytes() + size <= self.budget_bytes

    def install_replica(self, path: str, target: Node) -> bool:
        """Install a fetched copy in ``target``'s cache, budget permitting."""
        meta = self.locate(path)
        if meta.size > target.cache.capacity or not self.admits(meta.size):
            self.budget_rejections += 1
            return False
        target.cache.insert(path, meta.size)
        self.edge_installs += 1
        return True

    # -- I/O ---------------------------------------------------------------
    def read(self, path: str, at_node: int,
             ctx: Optional[Span] = None) -> ReadGenerator:
        meta = self.locate(path)
        if not meta.wan:
            return super().read(path, at_node, ctx)
        reader = self.nodes[at_node]
        if path in reader.cache:
            self.edge_hits += 1
            reader.cache.lookup(path)
            return self._own_cache_read(meta, at_node, ctx, "edge_cache_read",
                                        site=self.site)
        holder = self._cached_peer(path, at_node)
        if holder is not None:
            self.edge_hits += 1
            return self._peer_cache_read(meta, holder, at_node, ctx,
                                         "edge_peer_read", site=self.site)
        # WAN miss: origin read + uplink transfer + gated pull-through.
        self.wan_reads += 1
        self.wan_bytes += meta.size
        self.remote_reads += 1
        return self._read_wan(meta, reader, ctx)

    def _read_wan(self, meta: FileMeta, reader: Node,
                  ctx: Optional[Span]) -> ReadGenerator:
        """A WAN miss for :meth:`read`: the origin read, the uplink
        transfer, then a pull-through install in ``reader``'s cache."""
        path = meta.path
        origin_meta = self.origin_fs.locate(path)
        sp = self._read_span(ctx, "wan_fetch", reader.id, path=path,
                             site=self.site)
        yield from self.origin_fs.read(path, at_node=origin_meta.home, ctx=sp)
        wire = meta.size * (1.0 + self.remote_penalty)
        yield self.uplink.transfer(wire, tag=path)
        self._end_span(sp, bytes=wire)
        self.install_replica(path, reader)
        return ReadOutcome(path=path, nbytes=meta.size, source="wan",
                           remote=True, home=meta.home)

    def __repr__(self) -> str:
        return (f"<GeoFileSystem site={self.site!r} files={len(self._files)} "
                f"edge_hits={self.edge_hits} wan_reads={self.wan_reads}>")
