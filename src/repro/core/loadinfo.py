"""Load information data model.

Each SWEB processor keeps its *own* view of the cluster, fed by periodic
loadd broadcasts.  Views are therefore stale by up to one broadcast period
plus network latency — faithfully reproducing the "unsynchronized
overloading" hazard §3.2 mitigates with Δ-inflation.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = ["LoadSnapshot", "ClusterView"]


class LoadSnapshot(NamedTuple):
    """What one loadd broadcast says about a node (immutable)."""

    node: int
    cpu_load: float        # run-queue length (jobs in service)
    disk_load: float       # in-flight reads on the disk channel
    net_load: float        # in-flight transfers at the node's fabric port
    cpu_speed: float       # ops/s — heterogeneous nodes advertise theirs
    disk_bandwidth: float  # bytes/s
    timestamp: float       # when the sample was taken

    def aged(self, now: float) -> float:
        """Seconds since this sample was taken."""
        return now - self.timestamp


class ClusterView:
    """One node's (possibly stale) picture of every processor.

    ``staleness_timeout`` implements loadd's availability rule: a
    processor "which ha[s] not responded in a preset period of time" is
    marked unavailable (§3.1).

    ``suspicion_timeout`` adds an earlier tier for graceful degradation:
    a peer silent longer than this is *suspected* — still a priced
    candidate for un-degraded SWEB, but a graceful broker stops
    redirecting to it before the staleness timeout declares it dead.
    ``None`` collapses suspicion into staleness (one-tier behaviour).
    """

    def __init__(self, owner: int, staleness_timeout: float = 8.0,
                 suspicion_timeout: Optional[float] = None) -> None:
        if staleness_timeout <= 0:
            raise ValueError(f"staleness_timeout must be > 0, got {staleness_timeout}")
        if suspicion_timeout is not None and suspicion_timeout <= 0:
            raise ValueError(
                f"suspicion_timeout must be > 0, got {suspicion_timeout}")
        self.owner = owner
        self.staleness_timeout = float(staleness_timeout)
        self.suspicion_timeout = (float(suspicion_timeout)
                                  if suspicion_timeout is not None
                                  else float(staleness_timeout))
        #: node -> latest snapshot, kept in node order (re-sorted only
        #: when a node is first heard of) so queries never sort
        self._snapshots: dict[int, LoadSnapshot] = {}

    # -- updates --------------------------------------------------------------
    def update(self, snapshot: LoadSnapshot) -> None:
        """Install a fresh broadcast (or the local self-sample)."""
        snaps = self._snapshots
        known = snapshot.node in snaps
        snaps[snapshot.node] = snapshot
        if not known:
            self._snapshots = dict(sorted(snaps.items()))

    def inflate_cpu(self, node: int, delta: float) -> None:
        """Conservatively raise a node's believed CPU load after routing a
        request to it (§3.2: "we conservatively increase the CPU load of
        p_x by Δ … Δ = 30%").

        Multiplies the believed run-queue length by (1 + Δ) and adds Δ so
        that an idle node (load 0) is also nudged; the additive term is
        what prevents the synchronized herd onto a node everyone believes
        idle.
        """
        snap = self._snapshots.get(node)
        if snap is None:
            return
        new_load = snap.cpu_load * (1.0 + delta) + delta
        self._snapshots[node] = snap._replace(cpu_load=new_load)

    # -- queries ---------------------------------------------------------------
    def get(self, node: int, now: float) -> Optional[LoadSnapshot]:
        """Snapshot for ``node`` if fresh enough, else None (unavailable)."""
        snap = self._snapshots.get(node)
        if snap is None:
            return None
        if node != self.owner and snap.aged(now) > self.staleness_timeout:
            return None
        return snap

    def available(self, now: float) -> list[LoadSnapshot]:
        """Snapshots of every node currently believed available."""
        owner = self.owner
        timeout = self.staleness_timeout
        # get() inlined: the owner is always fresh, peers until timed out.
        return [snap for node, snap in self._snapshots.items()
                if node == owner or not now - snap.timestamp > timeout]

    def age(self, node: int, now: float) -> Optional[float]:
        """Seconds since ``node`` last reported, or None if never heard."""
        snap = self._snapshots.get(node)
        if snap is None:
            return None
        return snap.aged(now)

    def suspected(self, node: int, now: float) -> bool:
        """True when ``node`` has been silent past the suspicion timeout.

        The owner is never suspect (its own /proc is always current).
        Unknown nodes and fully-stale nodes also report True: anything
        not provably fresh is unsafe to redirect to under degradation.
        """
        if node == self.owner:
            return False
        aged = self.age(node, now)
        return aged is None or aged > self.suspicion_timeout

    def freshest_peer_age(self, now: float) -> Optional[float]:
        """Age of the most recent *peer* report, or None with no peers.

        This is the broker's degradation signal: when even the freshest
        peer report is old, the scheduling picture as a whole is gone
        (loadd silenced, partitioned, or every peer dead) and cost-model
        decisions are built on fiction.
        """
        ages = [snap.aged(now) for node, snap in self._snapshots.items()
                if node != self.owner]
        return min(ages) if ages else None

    def availability(self, now: float) -> dict[int, str]:
        """Three-tier availability: "available" | "suspect" | "unavailable".

        The tiers are loadd's availability rule (§3.1) refined by the
        suspicion timeout: fresh within ``suspicion_timeout`` →
        available, within ``staleness_timeout`` → suspect, older →
        unavailable.
        """
        out: dict[int, str] = {}
        for node in self._snapshots:
            if node == self.owner:
                out[node] = "available"
                continue
            aged = self._snapshots[node].aged(now)
            if aged > self.staleness_timeout:
                out[node] = "unavailable"
            elif aged > self.suspicion_timeout:
                out[node] = "suspect"
            else:
                out[node] = "available"
        return out

    def known_nodes(self) -> list[int]:
        return list(self._snapshots)

    def __repr__(self) -> str:
        return f"<ClusterView owner={self.owner} nodes={self.known_nodes()}>"
