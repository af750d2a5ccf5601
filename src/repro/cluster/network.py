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

from typing import Any, Iterable, Optional

from ..sim import Event, FairShareServer, Simulator

__all__ = [
    "Link",
    "ClusterNetwork",
    "FatTreeNetwork",
    "SharedBusNetwork",
    "WANPath",
    "Internet",
]


class Link:
    """A unidirectional shared pipe: fixed latency + fair-share bandwidth."""

    def __init__(self, sim: Simulator, bandwidth: float, latency: float = 0.0,
                 name: str = "link") -> None:
        if bandwidth <= 0:
            raise ValueError(f"link bandwidth must be > 0, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.server = FairShareServer(sim, rate=bandwidth, name=f"{name}.pipe")
        self.bytes_sent = 0.0

    def transfer(self, nbytes: float, tag: Any = None,
                 cap: Optional[float] = None) -> Event:
        """Move ``nbytes`` through the link; fires when the last byte lands."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        self.bytes_sent += nbytes
        done = Event(self.sim)

        # Process-free callback chain (docs/PERFORMANCE.md): scheduling
        # order matches the old generator pump exactly.
        def queue_job(_ev: Event) -> None:
            job = self.server.submit(nbytes, cap=cap, tag=tag)
            job.callbacks.append(lambda ev: done.succeed(nbytes))

        def start(_ev: Event) -> None:
            if self.latency > 0:
                self.sim.timeout(self.latency).callbacks.append(queue_job)
            else:
                queue_job(_ev)

        self.sim.defer(start)
        return done

    def __repr__(self) -> str:
        return (f"<Link {self.name!r} bw={self.bandwidth / 1e6:.2f}MB/s "
                f"load={self.server.njobs}>")


class ClusterNetwork:
    """Interface for the intra-cluster interconnect.

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

    def transfer(self, src: int, dst: int, nbytes: float, tag: Any = None) -> Event:
        """Move ``nbytes`` from node ``src`` to node ``dst``."""
        raise NotImplementedError

    def multicast(self, src: int, dsts: Iterable[int], nbytes: float,
                  tag: Any = None) -> list[Event]:
        """Send one ``nbytes`` payload from ``src`` to every node in ``dsts``.

        Returns one completion event per destination, in ``dsts`` order —
        semantically identical to calling :meth:`transfer` in a loop, but
        fabrics override it with a batched implementation that drives the
        whole fan-out from a single simulator process (one spawn and one
        latency timer instead of one per destination).  loadd's periodic
        broadcasts — O(nodes²) transfers per period — are the main user.
        """
        return [self.transfer(src, dst, nbytes, tag=tag) for dst in dsts]

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

    def _lost(self, src: int, dst: int, sim: "Simulator") -> Event:
        """A transfer into the cut: count it, return a never-firing event."""
        self.transfers_lost += 1
        return Event(sim)


def _join(sim: Simulator, first: Event, second: Event, done: Event,
          value: Any) -> None:
    """Succeed ``done`` with ``value`` once both legs have succeeded.

    A countdown on the legs' callbacks triggers one relay event whose
    callback succeeds ``done``: the relay takes the lane slot an
    ``AllOf([first, second])`` would have taken, so the schedule is the
    same without building the condition.  As with ``AllOf``, the first
    failed leg fails the relay at once (and is defused); ``done`` still
    succeeds when the relay dispatches, and the relay's failure then
    propagates out of the run.
    """
    relay = Event(sim)
    relay.callbacks.append(lambda _ev: done.succeed(value))
    left = 2

    def leg(ev: Event) -> None:
        nonlocal left
        if relay.triggered:
            return
        if not ev.ok:
            ev.defuse()
            relay.fail(ev.value)
            return
        left -= 1
        if not left:
            relay.succeed()

    first.callbacks.append(leg)
    second.callbacks.append(leg)


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
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        self.sim = sim
        self.name = name
        self.nodes = nodes
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.ports = [FairShareServer(sim, rate=bandwidth, name=f"{name}.port{i}")
                      for i in range(nodes)]
        self.bytes_sent = 0.0

    def transfer(self, src: int, dst: int, nbytes: float, tag: Any = None) -> Event:
        if not (0 <= src < self.nodes and 0 <= dst < self.nodes):
            raise ValueError(f"bad endpoints {src}->{dst} (nodes={self.nodes})")
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src == dst:
            # Loopback never touches the fabric.
            done = Event(self.sim)
            done.succeed(nbytes)
            return done
        if not self.reachable(src, dst):
            return self._lost(src, dst, self.sim)
        done = Event(self.sim)
        self.bytes_sent += nbytes

        # Process-free callback chain (docs/PERFORMANCE.md): scheduling
        # order matches the old generator pump exactly.
        def open_stream(_ev: Event) -> None:
            out = self.ports[src].submit(nbytes, tag=tag)
            inn = self.ports[dst].submit(nbytes, tag=tag)
            _join(self.sim, out, inn, done, nbytes)

        def start(_ev: Event) -> None:
            if self.latency > 0:
                self.sim.timeout(self.latency).callbacks.append(open_stream)
            else:
                open_stream(_ev)

        self.sim.defer(start)
        return done

    def multicast(self, src: int, dsts: Iterable[int], nbytes: float,
                  tag: Any = None) -> list[Event]:
        """Batched fan-out: one process pays the latency once, then opens
        every port-pair stream in ``dsts`` order — the same submissions in
        the same order as per-destination :meth:`transfer` calls, without
        a process/timer per destination."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        results: list[Event] = []
        remote: list[tuple[int, Event]] = []
        for dst in dsts:
            if not (0 <= src < self.nodes and 0 <= dst < self.nodes):
                raise ValueError(
                    f"bad endpoints {src}->{dst} (nodes={self.nodes})")
            if src == dst:
                done = Event(self.sim)
                done.succeed(nbytes)
            elif not self.reachable(src, dst):
                done = self._lost(src, dst, self.sim)
            else:
                self.bytes_sent += nbytes
                done = Event(self.sim)
                remote.append((dst, done))
            results.append(done)
        if remote:
            def pump():
                if self.latency > 0:
                    yield self.sim.timeout(self.latency)
                out_port = self.ports[src]
                for dst, done in remote:
                    out = out_port.submit(nbytes, tag=tag)
                    inn = self.ports[dst].submit(nbytes, tag=tag)
                    _join(self.sim, out, inn, done, nbytes)

            self.sim.spawn(pump(), name=f"{self.name}.mcast")
        return results

    def node_load(self, node: int) -> int:
        return self.ports[node].njobs


class SharedBusNetwork(ClusterNetwork):
    """Ethernet-style bus: every remote transfer shares one medium."""

    def __init__(self, sim: Simulator, bandwidth: float,
                 latency: float = 0.5e-3, name: str = "ethernet",
                 background_load: float = 0.0) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        if not 0.0 <= background_load < 1.0:
            raise ValueError(f"background_load must be in [0,1), got {background_load}")
        self.sim = sim
        self.name = name
        self.latency = float(latency)
        # The paper notes the UCSB Ethernet's effective bandwidth was low
        # because it was shared with other campus machines: model that as a
        # fixed fraction of the medium permanently consumed.
        self.bandwidth = float(bandwidth) * (1.0 - background_load)
        self.bus = FairShareServer(sim, rate=self.bandwidth, name=f"{name}.bus")
        self.bytes_sent = 0.0

    def transfer(self, src: int, dst: int, nbytes: float, tag: Any = None) -> Event:
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if src == dst:
            done = Event(self.sim)
            done.succeed(nbytes)
            return done
        if not self.reachable(src, dst):
            return self._lost(src, dst, self.sim)
        done = Event(self.sim)
        self.bytes_sent += nbytes

        # Process-free callback chain (docs/PERFORMANCE.md): scheduling
        # order matches the old generator pump exactly.
        def queue_job(_ev: Event) -> None:
            job = self.bus.submit(nbytes, tag=tag)
            job.callbacks.append(lambda ev: done.succeed(nbytes))

        def start(_ev: Event) -> None:
            if self.latency > 0:
                self.sim.timeout(self.latency).callbacks.append(queue_job)
            else:
                queue_job(_ev)

        self.sim.defer(start)
        return done

    def multicast(self, src: int, dsts: Iterable[int], nbytes: float,
                  tag: Any = None) -> list[Event]:
        """Batched fan-out over the shared medium: one process pays the
        latency once, then queues one bus job per destination in ``dsts``
        order — the same contention as per-destination :meth:`transfer`
        calls, without a process/timer per destination."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        results: list[Event] = []
        remote: list[Event] = []
        for dst in dsts:
            if src == dst:
                done = Event(self.sim)
                done.succeed(nbytes)
            elif not self.reachable(src, dst):
                done = self._lost(src, dst, self.sim)
            else:
                self.bytes_sent += nbytes
                done = Event(self.sim)
                remote.append(done)
            results.append(done)
        if remote:
            def pump():
                if self.latency > 0:
                    yield self.sim.timeout(self.latency)
                for done in remote:
                    job = self.bus.submit(nbytes, tag=tag)
                    job.callbacks.append(
                        lambda ev, d=done: d.succeed(nbytes))

            self.sim.spawn(pump(), name=f"{self.name}.mcast")
        return results

    def node_load(self, node: int) -> int:
        # A bus is global: every node observes the same contention.
        return self.bus.njobs


class WANPath:
    """The Internet path between one client and the server site."""

    def __init__(self, latency: float, bandwidth: float, name: str = "wan") -> None:
        if latency < 0:
            raise ValueError(f"negative latency: {latency}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
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
        if nbytes < 0:
            raise ValueError(f"negative send size: {nbytes}")
        self.bytes_sent += nbytes
        done = Event(self.sim)

        # Process-free callback chain (docs/PERFORMANCE.md): scheduling
        # order matches the old generator pump exactly.
        def queue_job(_ev: Event) -> None:
            job = nic.submit(nbytes, cap=path.bandwidth, tag=tag)
            job.callbacks.append(lambda ev: done.succeed(nbytes))

        def start(_ev: Event) -> None:
            if path.latency > 0:
                self.sim.timeout(path.latency).callbacks.append(queue_job)
            else:
                queue_job(_ev)

        self.sim.defer(start)
        return done
