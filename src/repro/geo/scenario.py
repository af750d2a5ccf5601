"""Geo scenarios: multi-site client populations against a GeoSystem.

One :class:`GeoScenario` describes the whole deployment — topology,
corpus, Zipf workload, per-edge replica budget, optional site partition
— and :func:`run_geo` executes it deterministically: arrival times are a
fixed-rate grid, each arrival's *home site* is drawn from the registered
``geo-affinity`` substream proportionally to site weights, and the path
comes from the standard Zipf sampler.  Site routing happens at arrival
time through :class:`~repro.geo.routing.GeoDNS`, so overload spill and
partitions act on live simulation state.

Clients are modelled per ``(home, target)`` pair: a spilled request pays
the inter-site WAN latency on top of the base last-mile path, which is
exactly the trade the X13 experiment measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.costmodel import CostParameters
from ..obs import percentile
from ..sim import Event, RandomStreams
from ..web.client import Client, ClientProfile
from ..cluster.network import WANPath
from ..workload.corpus import uniform_corpus
from ..workload.generators import zipf_sampler
from .spec import GeoSpec, geo3
from .system import GeoSystem

__all__ = ["GeoScenario", "PopulationStats", "GeoResult", "run_geo"]

KB = 1e3
MB = 1e6

#: last-mile path every geo client rides before any inter-site hop
_BASE_LATENCY = 5e-3
_BASE_BANDWIDTH = 4e6


@dataclass
class GeoScenario:
    """Everything needed to run one multi-site workload."""

    name: str = "geo"
    spec: Optional[GeoSpec] = None
    n_files: int = 60
    hot_files: int = 12
    file_bytes: float = 100 * KB
    alpha: float = 1.1
    tail_weight: float = 0.2
    rps: float = 40.0
    duration: float = 15.0
    seed: int = 0
    params: Optional[CostParameters] = None
    graceful: bool = False
    edge_budget_bytes: float = 16 * MB
    client_timeout: float = 30.0
    #: partition this site for ``partition_window`` (sim seconds)
    partition_site: Optional[str] = None
    partition_window: Tuple[float, float] = (4.0, 10.0)

    def __post_init__(self) -> None:
        # Chained comparisons, so NaN and infinity fail them too: a
        # negative rate or duration would run silently with no arrivals,
        # and an infinite one asks for infinitely many.
        if not 0 < self.rps < math.inf:
            raise ValueError(f"rps must be finite and > 0: {self.rps}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0: "
                             f"{self.duration}")

    def resolved_spec(self) -> GeoSpec:
        return self.spec or geo3()


@dataclass
class PopulationStats:
    """What one home-site population experienced."""

    site: str
    offered: int = 0
    completed: int = 0
    dropped: int = 0
    #: arrivals the resolver could not route anywhere (dark POP,
    #: non-graceful mode) — never reached any cluster
    lost: int = 0
    #: completed requests served by a non-home site
    spilled: int = 0
    response_times: List[float] = field(default_factory=list)

    @property
    def p95(self) -> float:
        return percentile(self.response_times, 95)

    @property
    def loss_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return (self.dropped + self.lost) / self.offered


@dataclass
class GeoResult:
    """Outcome of one :func:`run_geo` execution."""

    scenario: GeoScenario
    system: GeoSystem
    populations: Dict[str, PopulationStats]
    edge_hit_rate: float
    wan_reads: int
    wan_bytes: float
    placements: int
    spills: int
    partition_spills: int
    unroutable: int
    finished_at: float

    def population(self, site: str) -> PopulationStats:
        return self.populations[site]

    def summary_line(self) -> str:
        pops = " ".join(
            f"{site}:p95={stats.p95:.3f}s loss={stats.loss_rate:.0%}"
            for site, stats in sorted(self.populations.items()))
        return (f"{self.scenario.name}: hit={self.edge_hit_rate:.0%} "
                f"wan={self.wan_reads} placed={self.placements} {pops}")


def run_geo(scenario: GeoScenario) -> GeoResult:
    """Build the GeoSystem, drive the populations, aggregate per site."""
    spec = scenario.resolved_spec()
    system = GeoSystem(
        spec=spec, params=scenario.params, seed=scenario.seed,
        graceful=scenario.graceful,
        edge_budget_bytes=scenario.edge_budget_bytes)
    sim = system.sim

    origin_nodes = spec.site(spec.origin).cluster.num_nodes
    corpus = uniform_corpus(scenario.n_files, scenario.file_bytes,
                            origin_nodes, prefix="/geo")
    system.install_corpus(corpus)

    rng = RandomStreams(seed=scenario.seed)
    sample_path = zipf_sampler(corpus, rng, alpha=scenario.alpha,
                               hot_set=min(scenario.hot_files,
                                           scenario.n_files),
                               tail_weight=(scenario.tail_weight
                                            if scenario.hot_files
                                            < scenario.n_files else 0.0))

    # Pre-draw every arrival's home site and path in arrival order, so
    # the draw sequence is independent of simulation interleaving.
    sites = list(spec.site_names)
    weights = [spec.site(name).weight for name in sites]
    total_weight = sum(weights)
    n_requests = int(scenario.rps * scenario.duration)
    arrivals: List[Tuple[float, str, str]] = []
    for i in range(n_requests):
        u = rng.uniform("geo-affinity") * total_weight
        home = sites[-1]
        for name, w in zip(sites, weights):
            if u < w:
                home = name
                break
            u -= w
        arrivals.append((i / scenario.rps, home, sample_path()))

    populations = {name: PopulationStats(site=name) for name in sites}
    clients: Dict[Tuple[str, str], Client] = {}

    def client_for(home: str, target: str) -> Client:
        key = (home, target)
        client = clients.get(key)
        if client is None:
            extra = 0.0 if home == target else spec.link(home, target).latency
            profile = ClientProfile(
                name=home,
                wan=WANPath(latency=_BASE_LATENCY + extra,
                            bandwidth=_BASE_BANDWIDTH,
                            name=f"{home}->{target}"),
                domain=f"{home}.pop")
            client = Client(system.clusters[target], profile=profile,
                            timeout=scenario.client_timeout)
            clients[key] = client
        return client

    # One final event, settled by a countdown where the arrivals' work
    # ends: it fails on the first failed fetch, as a join would.
    finished = Event(sim)
    unsettled = len(arrivals)

    def settle() -> None:
        nonlocal unsettled
        unsettled -= 1
        if not unsettled and not finished.triggered:
            finished.succeed()

    def arrive(home: str, path: str) -> None:
        """One arrival at its time: route it, fetch, then settle."""
        pop = populations[home]
        pop.offered += 1
        target = system.dns.route(home)
        if target is None:
            pop.lost += 1
            settle()
            return

        def fetched(proc: Event) -> None:
            if not proc.ok:
                # Handled here, as a process waiting on the fetch would
                # handle it: ``finished`` carries the failure to the run.
                proc.defuse()
                if not finished.triggered:
                    finished.fail(proc.value)
                return
            rec = proc.value
            if rec.dropped:
                pop.dropped += 1
            elif rec.ok and rec.response_time is not None:
                pop.completed += 1
                pop.response_times.append(rec.response_time)
                if target != home:
                    pop.spilled += 1
            settle()

        client_for(home, target).fetch(path).callbacks.append(fetched)

    def release(_event: Event) -> None:
        # One URGENT hop where each arrival used to start a process of its
        # own: arrivals due now run inline, and the later ones (a suffix:
        # the grid only grows) go on one timeline, under the keys and at
        # the instants that a timeout per arrival armed here would take.
        now = sim.now
        due = 0
        for at, home, path in arrivals:
            if at - now > 0:
                break
            arrive(home, path)
            due += 1
        later = arrivals[due:]
        sim.timeline([now + (at - now) for at, _, _ in later],
                     lambda i: arrive(later[i][1], later[i][2]))

    sim.defer(release)

    if scenario.partition_site is not None:
        start, end = scenario.partition_window
        if not 0 <= start < end:
            raise ValueError(
                f"bad partition window: {scenario.partition_window}")

        def partition_proc():
            yield sim.timeout(start)
            system.dns.partition_site(scenario.partition_site)
            yield sim.timeout(end - start)
            system.dns.heal_site(scenario.partition_site)

        sim.spawn(partition_proc(), name="geo.partition")

    if not arrivals:
        finished.succeed()
    system.run(until=finished)

    return GeoResult(
        scenario=scenario,
        system=system,
        populations=populations,
        edge_hit_rate=system.edge_hit_rate(),
        wan_reads=sum(fs.wan_reads for fs in system.edge_fs.values()),
        wan_bytes=system.wan_bytes(),
        placements=system.total_placements(),
        spills=system.dns.spills,
        partition_spills=system.dns.partition_spills,
        unroutable=system.dns.unroutable,
        finished_at=sim.now,
    )
