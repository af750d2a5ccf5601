"""The cross-site placement daemon: the geo analogue of PR 4's
:class:`~repro.cache.replication.ReplicationDaemon`.

Every ``period`` simulated seconds the daemon snapshots the geo-wide
:class:`~repro.cache.stats.FileHeat` counters, runs the pure planner
(:func:`repro.geo.placement.plan_placement`) against each edge's
remaining byte budget, and executes the plan by *paying for it*: an
origin-side read (cache or disk), the WAN uplink transfer with the NFS
penalty, and only then the install into the least-loaded edge node's
page cache.  The in-flight set keeps one copy of a file per site from
being shipped twice while a transfer is still on the wire.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterator, List, Optional, Tuple

from ..cache import FileHeat
from ..obs import Tracer
from ..sim import Event, Process, Simulator
from .fs import GeoFileSystem
from .placement import plan_placement
from .spec import GeoSpec

__all__ = ["GeoPlacementDaemon"]


class GeoPlacementDaemon:
    """Periodic origin→edge replica pusher for one :class:`GeoSystem`."""

    def __init__(self, sim: Simulator, spec: GeoSpec,
                 edge_fs: Dict[str, GeoFileSystem],
                 heat: FileHeat, period: float = 2.0, skew: float = 1.5,
                 max_per_cycle: int = 4,
                 tracer: Optional[Tracer] = None) -> None:
        if period <= 0:
            raise ValueError("placement period must be positive")
        if skew < 1.0:
            raise ValueError("placement skew threshold must be >= 1")
        if max_per_cycle < 1:
            raise ValueError("max_per_cycle must be >= 1")
        self.sim = sim
        self.spec = spec
        self.edge_fs = edge_fs
        self.heat = heat
        self.period = float(period)
        self.skew = float(skew)
        self.max_per_cycle = int(max_per_cycle)
        self.tracer = tracer
        self.placements = 0
        self.bytes_placed = 0.0
        self.cycles = 0
        self._in_flight: set[Tuple[str, str]] = set()
        self._proc: Optional[Process] = None

    # -- planning ----------------------------------------------------------
    def _heat_snapshot(self) -> Dict[str, float]:
        """The hottest files by served bytes, as a plain dict."""
        width = 4 * self.max_per_cycle * max(len(self.edge_fs), 1)
        return dict(self.heat.top_bytes(width))

    def _remaining_budgets(self) -> Dict[str, float]:
        """Per-site budget minus resident and in-flight replica bytes."""
        out: Dict[str, float] = {}
        for site, fs in self.edge_fs.items():
            pending = sum(fs.locate(path).size
                          for path, s in self._in_flight
                          if s == site and fs.exists(path))
            out[site] = max(0.0,
                            fs.budget_bytes - fs.resident_replica_bytes()
                            - pending)
        return out

    def _existing(self, paths) -> Dict[str, set[str]]:
        """Which sites already hold (or are receiving) each hot path."""
        out: Dict[str, set[str]] = {}
        for path in paths:
            sites = {site for site, fs in self.edge_fs.items()
                     if fs.exists(path)
                     and any(path in node.cache for node in fs.nodes)}
            sites |= {s for p, s in self._in_flight if p == path}
            if sites:
                out[path] = sites
        return out

    def plan(self) -> Tuple[Tuple[str, str], ...]:
        """One deterministic planning pass over the current heat."""
        snapshot = self._heat_snapshot()
        sizes = {}
        for path in snapshot:
            for fs in self.edge_fs.values():
                if fs.exists(path):
                    sizes[path] = fs.locate(path).size
                    break
        return plan_placement(snapshot, sizes,
                              edge_sites=list(self.edge_fs),
                              budgets=self._remaining_budgets(),
                              existing=self._existing(snapshot),
                              skew=self.skew,
                              max_placements=self.max_per_cycle)

    # -- execution ---------------------------------------------------------
    def place(self, path: str, site: str) -> Process:
        """Ship one copy of ``path`` to ``site``, paying the real costs."""
        fs = self.edge_fs[site]
        meta = fs.locate(path)
        self._in_flight.add((path, site))

        def pump() -> Generator[Event, object, str]:
            origin_meta = fs.origin_fs.locate(path)
            yield from fs.origin_fs.read(path, at_node=origin_meta.home)
            wire = meta.size * (1.0 + fs.remote_penalty)
            yield fs.uplink.transfer(wire, tag="geo-place")
            self._in_flight.discard((path, site))
            target = self._target_node(fs)
            if target is not None and fs.install_replica(path, target):
                self.placements += 1
                self.bytes_placed += meta.size
                if self.tracer is not None and self.tracer.active:
                    self.tracer.emit(self.sim.now, "geo", "placementd",
                                     "place", path=path, site=site,
                                     node=target.id, bytes=meta.size)
            return path

        return self.sim.spawn(pump(), name=f"geo.place:{path}->{site}")

    @staticmethod
    def _target_node(fs: GeoFileSystem):
        """Least-loaded alive node in the site (ties on node id)."""
        alive = [n for n in fs.nodes if n.alive]
        if not alive:
            return None
        return min(alive, key=lambda n: (float(fs.network.node_load(n.id)),
                                         n.id))

    # -- the daemon loop ---------------------------------------------------
    def start(self) -> Process:
        if self._proc is None:
            self._proc = self.sim.spawn(self._run(), name="geo-placementd")
        return self._proc

    def run_cycle(self) -> List[Tuple[str, str]]:
        self.cycles += 1
        planned = list(self.plan())
        for path, site in planned:
            self.place(path, site)
        return planned

    def _run(self) -> Iterator[Event]:
        while True:
            yield self.sim.timeout(self.period)
            self.run_cycle()
