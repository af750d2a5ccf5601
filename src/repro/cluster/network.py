"""Interconnect and wide-area network models.

Three different fabrics appear in the paper:

* the Meiko CS-2's **fat-tree** (40 MB/s per port, essentially
  non-blocking internally) — modelled as per-node port stations, so a
  transfer contends only at its two endpoints;
* the NOW's **shared 10 Mb/s Ethernet** — a single bus station that every
  remote transfer in the whole cluster shares (this is what makes file
  locality pay off in Table 4);
* the **Internet** between clients and the server site — modelled as a
  per-client path (latency + bandwidth cap) drawing from the serving
  node's NIC, which the paper identifies as "often a severe bottleneck".
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Optional

from ..sim import Event, FairShareServer, Simulator, join

__all__ = [
    "Link",
    "ClusterNetwork",
    "FatTreeNetwork",
    "SharedBusNetwork",
    "WANPath",
    "Internet",
]

def _check_path(bandwidth: float, latency: float) -> None:
    """Reject a bandwidth or latency no stream could cross in finite time.

    Chained comparisons, so NaN fails them too: a NaN latency would
    otherwise skip the hop (``nan > 0`` is false) and an infinite one
    would never land.
    """
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth}")
    if not 0 <= latency < math.inf:
        raise ValueError(f"latency must be finite and >= 0, got {latency}")


def _check_size(nbytes: float) -> None:
    if nbytes < 0:
        raise ValueError(f"negative transfer size: {nbytes}")


def _start_hop(sim: Simulator, latency: float,
               open_stream: Callable[[Event], None]) -> None:
    """Call ``open_stream(event)`` once ``latency`` has passed.

    The start hop of every transfer: the latency timeout is armed in the
    caller's step; a zero latency defers the start instead, scheduled like
    a new process's initialisation event (docs/ARCHITECTURE.md).
    """
    if latency > 0:
        sim.timeout(latency).callbacks.append(open_stream)
    else:
        sim.defer(open_stream)


def _relay(job: Event, done: Event, value: Any) -> None:
    """Settle ``done`` with ``value`` in the dispatch that finishes the
    station ``job``."""
    job.callbacks.append(lambda _ev: done.settle(value))


def _send(sim: Simulator, station: FairShareServer, latency: float,
          nbytes: float, tag: Any, cap: Optional[float]) -> Event:
    """One stream through ``station`` after the start hop; the returned
    event fires with ``nbytes`` when the last byte lands."""
    done = Event(sim)
    _start_hop(sim, latency, lambda _ev: _relay(
        station.submit(nbytes, cap=cap, tag=tag), done, nbytes))
    return done


class Link:
    """A unidirectional shared pipe: fixed latency + fair-share bandwidth."""

    def __init__(self, sim: Simulator, bandwidth: float, latency: float = 0.0,
                 name: str = "link") -> None:
        _check_path(bandwidth, latency)
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.server = FairShareServer(sim, rate=bandwidth, name=f"{name}.pipe")
        self.bytes_sent = 0.0

    def transfer(self, nbytes: float, tag: Any = None,
                 cap: Optional[float] = None) -> Event:
        """Move ``nbytes`` through the link; fires when the last byte lands."""
        _check_size(nbytes)
        self.bytes_sent += nbytes
        return _send(self.sim, self.server, self.latency, nbytes, tag, cap)

    def __repr__(self) -> str:
        return (f"<Link {self.name!r} bw={self.bandwidth / 1e6:.2f}MB/s "
                f"load={self.server.njobs}>")


class ClusterNetwork:
    """The intra-cluster interconnect: one transfer path for every fabric.

    This class owns everything a transfer does apart from occupying the
    medium: the size check, loopback (a transfer to oneself never
    touches the fabric), the partition cut, byte accounting and the
    latency hop.  A fabric states only how a stream occupies it
    (:meth:`_stream`) and what a node's load is (:meth:`node_load`).

    Partition support (the fault-injection subsystem, docs/FAULTS.md)
    lives here so every fabric inherits it: :meth:`partition` splits the
    nodes into disjoint groups, after which cross-group transfers are
    *lost* — their completion events simply never fire, exactly like
    packets into a dead switch.  loadd broadcasts stop crossing the cut
    (peers stale each other out) and cross-partition NFS reads hang
    until the client's timeout.  :meth:`heal` restores full reachability
    for transfers started afterwards; in-flight lost transfers stay lost.
    """

    #: advertised peak bandwidth of a single path, bytes/s (``b_net``)
    bandwidth: float
    #: node id -> partition group id; None = fully connected
    _node_group: Optional[dict[int, int]] = None
    #: transfers dropped at a partition cut (diagnostic counter)
    transfers_lost: int = 0

    def __init__(self, sim: Simulator, bandwidth: float, latency: float,
                 name: str) -> None:
        _check_path(bandwidth, latency)
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.bytes_sent = 0.0

    def transfer(self, src: int, dst: int, nbytes: float, tag: Any = None) -> Event:
        """Move ``nbytes`` from node ``src`` to node ``dst``."""
        _check_size(nbytes)
        done, crosses = self._leg(src, dst, nbytes)
        if crosses:
            _start_hop(self.sim, self.latency,
                       lambda _ev: self._stream(src, dst, nbytes, tag, done))
        return done

    def multicast(self, src: int, dsts: Iterable[int], nbytes: float,
                  tag: Any = None) -> list[Event]:
        """Send one ``nbytes`` payload from ``src`` to every node in ``dsts``.

        Returns one completion event per destination, in ``dsts`` order.
        One start hop pays the latency once, then opens every stream in
        ``dsts`` order: the same submissions in the same order as
        per-destination :meth:`transfer` calls, without a start hop per
        destination.  loadd's periodic broadcasts — O(nodes²) transfers
        per period — are the main user.
        """
        _check_size(nbytes)
        results: list[Event] = []
        remote: list[tuple[int, Event]] = []
        for dst in dsts:
            done, crosses = self._leg(src, dst, nbytes)
            if crosses:
                remote.append((dst, done))
            results.append(done)
        if remote:
            def open_streams(_ev: Event) -> None:
                for dst, done in remote:
                    self._stream(src, dst, nbytes, tag, done)

            _start_hop(self.sim, self.latency, open_streams)
        return results

    def _leg(self, src: int, dst: int, nbytes: float) -> tuple[Event, bool]:
        """The completion event of one ``src -> dst`` leg, and whether the
        leg crosses the fabric.  A loopback leg has already succeeded; a
        leg into a partition cut is counted lost and never fires."""
        done = Event(self.sim)
        if src == dst:
            done.succeed(nbytes)
            return done, False
        if not self.reachable(src, dst):
            self.transfers_lost += 1
            return done, False
        self.bytes_sent += nbytes
        return done, True

    def _stream(self, src: int, dst: int, nbytes: float, tag: Any,
                done: Event) -> None:
        """Occupy the fabric with one stream; succeed ``done`` with
        ``nbytes`` when it has crossed."""
        raise NotImplementedError

    def node_load(self, node: int) -> int:
        """In-flight transfers that involve ``node`` (loadd's net metric)."""
        raise NotImplementedError

    # -- partitions (fault injection) ---------------------------------------
    def partition(self, groups) -> None:
        """Split the fabric into disjoint ``groups`` of node ids.

        Nodes not named in any group share an implicit extra group (they
        can still reach each other, but none of the named groups).
        """
        mapping: dict[int, int] = {}
        for gid, members in enumerate(groups):
            for node in members:
                node = int(node)
                if node in mapping:
                    raise ValueError(
                        f"node {node} appears in more than one group")
                mapping[node] = gid
        self._node_group = mapping

    def heal(self) -> None:
        """Remove any partition (future transfers flow everywhere again)."""
        self._node_group = None

    def reachable(self, src: int, dst: int) -> bool:
        """Whether a transfer from ``src`` to ``dst`` can cross the fabric."""
        if self._node_group is None:
            return True
        return self._node_group.get(src) == self._node_group.get(dst)


class FatTreeNetwork(ClusterNetwork):
    """Meiko CS-2 style fabric: contention only at the endpoints.

    Each node owns one port station; a transfer holds a job on the source
    and destination ports concurrently and completes when both finish
    (the slower endpoint governs, like a cut-through fabric).
    """

    def __init__(self, sim: Simulator, nodes: int, bandwidth: float,
                 latency: float = 10e-6, name: str = "fat-tree") -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        super().__init__(sim, bandwidth, latency, name)
        self.nodes = nodes
        self.ports = [FairShareServer(sim, rate=bandwidth, name=f"{name}.port{i}")
                      for i in range(nodes)]

    def _leg(self, src: int, dst: int, nbytes: float) -> tuple[Event, bool]:
        if not (0 <= src < self.nodes and 0 <= dst < self.nodes):
            raise ValueError(f"bad endpoints {src}->{dst} (nodes={self.nodes})")
        return super()._leg(src, dst, nbytes)

    def _stream(self, src: int, dst: int, nbytes: float, tag: Any,
                done: Event) -> None:
        out = self.ports[src].submit(nbytes, tag=tag)
        inn = self.ports[dst].submit(nbytes, tag=tag)
        join(self.sim, (out, inn), nbytes, done=done)

    def node_load(self, node: int) -> int:
        return self.ports[node].njobs


class SharedBusNetwork(ClusterNetwork):
    """Ethernet-style bus: every remote transfer shares one medium."""

    def __init__(self, sim: Simulator, bandwidth: float,
                 latency: float = 0.5e-3, name: str = "ethernet",
                 background_load: float = 0.0) -> None:
        super().__init__(sim, bandwidth, latency, name)
        if not 0.0 <= background_load < 1.0:
            raise ValueError(f"background_load must be in [0,1), got {background_load}")
        # The paper notes the UCSB Ethernet's effective bandwidth was low
        # because it was shared with other campus machines: model that as a
        # fixed fraction of the medium permanently consumed.
        self.bandwidth *= 1.0 - background_load
        self.bus = FairShareServer(sim, rate=self.bandwidth, name=f"{name}.bus")

    def _stream(self, src: int, dst: int, nbytes: float, tag: Any,
                done: Event) -> None:
        _relay(self.bus.submit(nbytes, tag=tag), done, nbytes)

    def node_load(self, node: int) -> int:
        # A bus is global: every node observes the same contention.
        return self.bus.njobs


class WANPath:
    """The Internet path between one client and the server site."""

    def __init__(self, latency: float, bandwidth: float, name: str = "wan") -> None:
        _check_path(bandwidth, latency)
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)
        self.name = name

    def __repr__(self) -> str:
        return (f"<WANPath {self.name!r} rtt={2 * self.latency * 1e3:.1f}ms "
                f"bw={self.bandwidth / 1e6:.2f}MB/s>")


class Internet:
    """Delivers server responses to clients over their WAN paths.

    A response stream is a job on the serving node's NIC, rate-capped by
    the client's own path bandwidth, plus the one-way path latency.  Slow
    clients therefore do not starve fast ones (the cap frees NIC share),
    while many concurrent responses on one node do contend — the paper's
    "network overhead ... concentrated at a single node" effect.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.bytes_sent = 0.0

    def send(self, nic: FairShareServer, path: WANPath, nbytes: float,
             tag: Any = None) -> Event:
        _check_size(nbytes)
        self.bytes_sent += nbytes
        return _send(self.sim, nic, path.latency, nbytes, tag,
                     path.bandwidth)
