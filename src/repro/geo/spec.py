"""Geo topology: named sites, per-site clusters, and the WAN link matrix.

A :class:`GeoSpec` describes one *origin* cluster (where every document's
authoritative copy lives) plus edge clusters behind WAN links — the
CDN-shaped deployment the ROADMAP names as the next rung above SWEB's
single multicomputer.  Latencies and bandwidths are per directed pair but
declared symmetric (one :class:`WanLink` covers both directions), which
matches the mid-90s leased-line reality the paper's Rutgers experiments
probed from the client side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..cluster.topology import ClusterSpec, meiko_cs2

__all__ = ["WanLink", "SiteSpec", "GeoSpec", "geo3"]

MB = 1e6


@dataclass(frozen=True)
class WanLink:
    """One inter-site WAN pipe: latency (one-way seconds) + bandwidth."""

    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        # Chained comparisons, so NaN and infinity fail them too.
        if not 0 <= self.latency < math.inf:
            raise ValueError(f"WAN latency must be finite and >= 0: "
                             f"{self.latency}")
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"WAN bandwidth must be finite and > 0: "
                             f"{self.bandwidth}")


@dataclass(frozen=True)
class SiteSpec:
    """One site: a name, the cluster hardware there, and its population
    weight (the fraction of global client arrivals homed to it, before
    normalisation)."""

    name: str
    cluster: ClusterSpec
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site needs a non-empty name")
        if self.weight <= 0:
            raise ValueError(f"site weight must be > 0: {self.weight}")


@dataclass(frozen=True)
class GeoSpec:
    """A multi-cluster deployment: sites plus the symmetric link matrix.

    ``links`` lists ``(site_a, site_b, WanLink)`` once per unordered
    pair; every distinct pair must be covered so routing and placement
    never invent a cost.
    """

    name: str
    sites: tuple[SiteSpec, ...]
    links: tuple[tuple[str, str, WanLink], ...]
    origin: str

    def __post_init__(self) -> None:
        names = [s.name for s in self.sites]
        if len(names) < 1:
            raise ValueError("a GeoSpec needs at least one site")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {names}")
        if self.origin not in names:
            raise ValueError(f"origin {self.origin!r} is not a site")
        covered = set()
        for a, b, _link in self.links:
            if a not in names or b not in names or a == b:
                raise ValueError(f"bad link endpoints ({a!r}, {b!r})")
            key = frozenset((a, b))
            if key in covered:
                raise ValueError(f"duplicate link {a!r}<->{b!r}")
            covered.add(key)
        needed = {frozenset((a, b))
                  for i, a in enumerate(names) for b in names[i + 1:]}
        missing = needed - covered
        if missing:
            raise ValueError(f"missing WAN links: {sorted(map(sorted, missing))}")

    # -- lookups ----------------------------------------------------------
    @property
    def site_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sites)

    @property
    def edge_names(self) -> tuple[str, ...]:
        """Every non-origin site, in declaration order."""
        return tuple(s.name for s in self.sites if s.name != self.origin)

    def site(self, name: str) -> SiteSpec:
        for s in self.sites:
            if s.name == name:
                return s
        raise KeyError(name)

    def link(self, a: str, b: str) -> WanLink:
        """The WAN link between two distinct sites (symmetric)."""
        if a == b:
            raise ValueError(f"no self-link for site {a!r}")
        key = frozenset((a, b))
        for la, lb, link in self.links:
            if frozenset((la, lb)) == key:
                return link
        raise KeyError(f"no link {a!r}<->{b!r}")

    def nearest_order(self, site: str) -> tuple[str, ...]:
        """Every *other* site ordered by WAN latency ascending — the
        deterministic spill sequence when ``site`` is overloaded or dark.
        Ties break on site name."""
        others = [s.name for s in self.sites if s.name != site]
        return tuple(sorted(others,
                            key=lambda o: (self.link(site, o).latency, o)))


def geo3(origin_nodes: int = 4, edge_nodes: int = 2,
         west_latency: float = 30e-3, east_latency: float = 80e-3,
         wan_bandwidth: float = 8 * MB) -> GeoSpec:
    """The reference testbed: one Meiko origin plus two smaller edges.

    ``west`` sits one coast away (default 30 ms), ``east`` across the
    country (default 80 ms); the edge-to-edge path is the sum of both
    hops — routing through the origin, as mid-90s topologies did.
    """
    return GeoSpec(
        name="geo3",
        sites=(
            SiteSpec("origin", replace(meiko_cs2(origin_nodes),
                                       name="origin"), weight=2.0),
            SiteSpec("west", replace(meiko_cs2(edge_nodes), name="west"),
                     weight=1.0),
            SiteSpec("east", replace(meiko_cs2(edge_nodes), name="east"),
                     weight=1.0),
        ),
        links=(
            ("origin", "west", WanLink(latency=west_latency,
                                       bandwidth=wan_bandwidth)),
            ("origin", "east", WanLink(latency=east_latency,
                                       bandwidth=wan_bandwidth)),
            ("west", "east", WanLink(latency=west_latency + east_latency,
                                     bandwidth=wan_bandwidth / 2)),
        ),
        origin="origin",
    )
