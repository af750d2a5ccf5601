"""Distributed file system with NFS cross-mounts.

Every file lives on exactly one node's dedicated disk; all other nodes
reach it through the interconnect (the paper's NFS cross-mounts).  Remote
access pays a protocol penalty on top of the raw transfer: ~10 % on the
Meiko's fat-tree, 50–70 % on the NOW's Ethernet (§3.2, measured by the
authors).  Reads go through the *home* node's page cache, so a popular
file served remotely still benefits from the home node's RAM.

When the replication daemon (repro.cache) has planted copies in other
nodes' page caches, reads additionally prefer any cache-resident copy
over the home disk: a peer's RAM plus one fabric hop is far cheaper than
a 5 MB/s disk (the xFS/GMS remote-memory observation).  Plain runs never
create such copies, so their event schedules are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, NamedTuple, Optional

from ..obs import Span, Tracer
from ..sim import Event, Simulator, join
from .network import ClusterNetwork
from .node import Node

__all__ = ["FileMeta", "ReadOutcome", "ReadGenerator", "DistributedFileSystem"]


@dataclass(frozen=True)
class FileMeta:
    """Placement record for one file.

    ``stripes`` is empty for whole-file placement; a striped file (§1:
    "retrieving files in parallel from inexpensive disks") lists every
    node holding a chunk, with ``home`` being the first of them (the
    node the locality heuristics treat as the owner).

    ``wan`` marks a file whose authoritative copy lives in *another
    cluster* behind a WAN link (the geo tier's origin): ``home`` is then
    the local gateway node and a cache miss pays the link cost.  Always
    False for single-cluster file systems.
    """

    path: str
    size: float
    home: int
    stripes: tuple[int, ...] = ()
    wan: bool = False

    @property
    def is_striped(self) -> bool:
        return len(self.stripes) > 1


class ReadOutcome(NamedTuple):
    """What happened during a read (for traces and tests; immutable)."""

    path: str
    nbytes: float
    source: str      # "cache" or "disk"
    remote: bool
    home: int


#: a read: a sub-generator of kernel events returning its ReadOutcome
ReadGenerator = Generator[Event, object, ReadOutcome]


class DistributedFileSystem:
    """Path → (home node, size) mapping plus the read machinery."""

    def __init__(self, sim: Simulator, nodes: list[Node],
                 network: ClusterNetwork, remote_penalty: float = 0.10) -> None:
        if not nodes:
            raise ValueError("need at least one node")
        if remote_penalty < 0:
            raise ValueError(f"negative remote_penalty: {remote_penalty}")
        self.sim = sim
        self.nodes = nodes
        self.network = network
        self.remote_penalty = float(remote_penalty)
        self._files: dict[str, FileMeta] = {}
        self.remote_reads = 0
        self.local_reads = 0
        #: local reads satisfied by a replicated (non-home) cache copy
        self.replica_reads = 0
        #: home-cache misses served from a peer's cached replica instead
        #: of the home disk (cooperative-cache fast path)
        self.peer_cache_reads = 0
        #: per-request span tracer (wired post-build by SWEBCluster;
        #: ``None`` = tracing off).  Reads pass their parent span via the
        #: ``ctx`` argument so cache/disk/NFS legs show up nested under
        #: the server's fulfillment span.
        self.tracer: Optional[Tracer] = None

    # -- tracing helpers ------------------------------------------------------
    def _read_span(self, ctx: Optional[Span], name: str,
                   node: Optional[int], **tags) -> Optional[Span]:
        """Open a data-transfer child span under ``ctx`` (None-safe)."""
        if self.tracer is None:
            return None
        return self.tracer.start(ctx, name, self.sim.now, "data_transfer",
                                 node=node, **tags)

    def _end_span(self, span: Optional[Span], **tags) -> None:
        """Close ``span`` at the current sim time (None-safe)."""
        if self.tracer is not None:
            self.tracer.finish(span, self.sim.now, **tags)

    # -- namespace -----------------------------------------------------------
    def add_file(self, path: str, size: float, home: int) -> FileMeta:
        """Place a file on ``home``'s disk."""
        if path in self._files:
            raise ValueError(f"duplicate path: {path!r}")
        if size < 0:
            raise ValueError(f"negative size for {path!r}: {size}")
        if not 0 <= home < len(self.nodes):
            raise ValueError(f"bad home node {home} for {path!r}")
        meta = FileMeta(path=path, size=float(size), home=home)
        self.nodes[home].disk.allocate(size)
        self._files[path] = meta
        return meta

    def add_striped_file(self, path: str, size: float,
                         stripes: Iterable[int]) -> FileMeta:
        """Stripe a file across several nodes' disks in equal chunks.

        Reads then proceed from every stripe disk in parallel — the §1
        promise that "retrieving files in parallel from inexpensive
        disks can significantly improve the scalability of the server".
        """
        if path in self._files:
            raise ValueError(f"duplicate path: {path!r}")
        if size < 0:
            raise ValueError(f"negative size for {path!r}: {size}")
        stripes = tuple(stripes)
        if not stripes:
            raise ValueError(f"striped file {path!r} needs at least one node")
        if len(set(stripes)) != len(stripes):
            raise ValueError(f"duplicate stripe nodes for {path!r}: {stripes}")
        for node in stripes:
            if not 0 <= node < len(self.nodes):
                raise ValueError(f"bad stripe node {node} for {path!r}")
        chunk = size / len(stripes)
        for node in stripes:
            self.nodes[node].disk.allocate(chunk)
        meta = FileMeta(path=path, size=float(size), home=stripes[0],
                        stripes=stripes)
        self._files[path] = meta
        return meta

    def exists(self, path: str) -> bool:
        return path in self._files

    def locate(self, path: str) -> FileMeta:
        """Placement of ``path``; raises ``FileNotFoundError`` if absent."""
        meta = self._files.get(path)
        if meta is None:
            raise FileNotFoundError(path)
        return meta

    def paths(self) -> list[str]:
        return list(self._files)

    def __len__(self) -> int:
        return len(self._files)

    # -- I/O ---------------------------------------------------------------------
    def read(self, path: str, at_node: int,
             ctx: Optional[Span] = None) -> ReadGenerator:
        """Read ``path`` as seen from ``at_node``: ``outcome = yield from
        fs.read(...)`` in a process, or ``sim.spawn(fs.read(...))`` for an
        event that fires with the :class:`ReadOutcome`.

        The counters move at the call.  Local reads hit the node's page
        cache or disk; remote reads are served by the home node (its cache
        or disk), then shipped over the interconnect with the NFS penalty
        applied to the bytes moved.  ``ctx`` is the caller's span: when
        tracing is on, each leg of the read becomes a child span under it.
        """
        meta = self.locate(path)
        if meta.is_striped:
            if at_node in meta.stripes:
                self.local_reads += 1
            else:
                self.remote_reads += 1
            return self._read_striped(meta, at_node, ctx)
        reader = self.nodes[at_node]
        remote = meta.home != at_node
        # A replication-daemon copy in the reading node's own cache turns
        # a would-be NFS read into a local memory-speed hit (the whole
        # point of proactive replication).  Plain runs never take this
        # branch: demand fills only populate the *home* cache.
        if remote and path in reader.cache:
            self.local_reads += 1
            self.replica_reads += 1
            reader.cache.lookup(path)
            return self._own_cache_read(meta, at_node, ctx, "replica_read")
        if remote:
            self.remote_reads += 1
        else:
            self.local_reads += 1
        return self._read_home(meta, at_node, ctx)

    def _read_home(self, meta: FileMeta, at_node: int,
                   ctx: Optional[Span]) -> ReadGenerator:
        """A whole-file read through the home node, for :meth:`read`."""
        path = meta.path
        home_node = self.nodes[meta.home]
        remote = meta.home != at_node
        # Stage 1: produce the bytes at the home node (cache or disk).
        if home_node.cache.lookup(path):
            source = "cache"
            sp = self._read_span(ctx, "cache_read", meta.home, path=path)
            yield home_node.read_from_cache(meta.size, tag=path)
            self._end_span(sp, bytes=meta.size)
        else:
            holder = self._cached_peer(path, at_node)
            if holder is not None:
                # Cooperative-cache fast path: a peer's cached replica
                # plus one fabric hop beats the home disk.  Only the
                # replication daemon creates non-home copies, so plain
                # runs never reach this branch.
                return (yield from self._peer_cache_read(
                    meta, holder, at_node, ctx, "peer_cache_read"))
            source = "disk"
            sp = self._read_span(ctx, "disk_read", meta.home, path=path)
            yield home_node.disk.read(meta.size, tag=path)
            self._end_span(sp, bytes=meta.size)
            home_node.cache.insert(path, meta.size)
        # Stage 2: ship them over the interconnect if non-local.
        if remote:
            wire_bytes = meta.size * (1.0 + self.remote_penalty)
            sp = self._read_span(ctx, "nfs_transfer", meta.home,
                                 path=path, dst=at_node)
            yield self.network.transfer(meta.home, at_node, wire_bytes,
                                        tag=path)
            self._end_span(sp, bytes=wire_bytes)
        return ReadOutcome(path=path, nbytes=meta.size, source=source,
                           remote=remote, home=meta.home)

    def _own_cache_read(self, meta: FileMeta, at_node: int,
                        ctx: Optional[Span], span: str,
                        **tags) -> ReadGenerator:
        """Serve ``meta`` from the reading node's own page cache.

        The caller has already counted the hit; the read is one memory-
        speed leg under a ``span`` child of ``ctx`` (``path`` plus
        ``tags``)."""
        sp = self._read_span(ctx, span, at_node, path=meta.path, **tags)
        yield self.nodes[at_node].read_from_cache(meta.size, tag=meta.path)
        self._end_span(sp, bytes=meta.size)
        return ReadOutcome(path=meta.path, nbytes=meta.size, source="cache",
                           remote=False, home=meta.home)

    def _peer_cache_read(self, meta: FileMeta, holder: Node, at_node: int,
                         ctx: Optional[Span], span: str,
                         **tags) -> ReadGenerator:
        """Serve ``meta`` from ``holder``'s page cache plus one fabric hop.

        Counts the peer read; the leg runs under a ``span`` child of
        ``ctx`` (``path``, ``dst`` plus ``tags``), and the hop carries the
        NFS penalty."""
        self.peer_cache_reads += 1
        holder.cache.lookup(meta.path)
        sp = self._read_span(ctx, span, holder.id, path=meta.path,
                             dst=at_node, **tags)
        yield holder.read_from_cache(meta.size, tag=meta.path)
        wire = meta.size * (1.0 + self.remote_penalty)
        yield self.network.transfer(holder.id, at_node, wire, tag=meta.path)
        self._end_span(sp, bytes=meta.size)
        return ReadOutcome(path=meta.path, nbytes=meta.size, source="cache",
                           remote=True, home=meta.home)

    def _cached_peer(self, path: str, at_node: int) -> Optional[Node]:
        """Least-loaded alive node, other than the reader ``at_node``,
        whose page cache holds ``path`` (ties break on node id).  ``None``
        when no replica exists — the overwhelmingly common case.  A plain
        read asks right after the home cache missed, so the home node
        never qualifies."""
        best: Optional[Node] = None
        best_key: Optional[tuple[float, int]] = None
        for node in self.nodes:
            if node.id == at_node or not node.alive:
                continue
            if path not in node.cache:
                continue
            key = (float(self.network.node_load(node.id)), node.id)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best

    def _read_striped(self, meta: FileMeta, at_node: int,
                      ctx: Optional[Span] = None) -> ReadGenerator:
        """Parallel chunk reads from every stripe disk.

        The assembled file is cached at the *reading* node (there is no
        single home copy to cache); chunks from non-local disks cross the
        interconnect with the NFS penalty.
        """
        reader = self.nodes[at_node]
        remote = at_node not in meta.stripes
        if reader.cache.lookup(meta.path):
            sp = self._read_span(ctx, "cache_read", at_node, path=meta.path)
            yield reader.read_from_cache(meta.size, tag=meta.path)
            self._end_span(sp, bytes=meta.size)
            return ReadOutcome(path=meta.path, nbytes=meta.size,
                               source="cache", remote=remote, home=meta.home)
        # One span for the whole parallel fan-out: the stripe legs
        # overlap by design, so modelling them as sibling child spans
        # would violate the non-overlap invariant.
        sp = self._read_span(ctx, "striped_read", at_node,
                             path=meta.path, stripes=len(meta.stripes))
        chunk = meta.size / len(meta.stripes)
        waits = []
        for node in meta.stripes:
            waits.append(self.nodes[node].disk.read(chunk, tag=meta.path))
            if node != at_node:
                wire = chunk * (1.0 + self.remote_penalty)
                waits.append(self.network.transfer(node, at_node, wire,
                                                   tag=meta.path))
        yield join(self.sim, waits)
        self._end_span(sp, bytes=meta.size)
        reader.cache.insert(meta.path, meta.size)
        return ReadOutcome(path=meta.path, nbytes=meta.size, source="disk",
                           remote=remote, home=meta.home)

    def __repr__(self) -> str:
        return (f"<DistributedFileSystem files={len(self._files)} "
                f"local={self.local_reads} remote={self.remote_reads}>")
