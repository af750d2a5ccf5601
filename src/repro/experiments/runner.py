"""Scenario runner: one experiment = cluster + corpus + workload → results.

This is the harness behind every table and figure: it builds a
:class:`SWEBCluster`, installs the corpus, replays the workload arrival
by arrival through simulated clients, waits for every request to finish
(complete, drop or time out), and aggregates the paper's metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..core import SWEBCluster
from ..sim import Event, Simulator, Summary, join
from ..web import Client, Metrics
from ..workload import Arrival, Scenario

__all__ = ["ScenarioResult", "replay", "run_scenario", "find_max_rps"]


@dataclass
class ScenarioResult:
    """Aggregated outcome of one scenario run."""

    scenario: str
    cluster: SWEBCluster
    metrics: Metrics
    duration: float          # nominal workload window
    finished_at: float       # simulated time the last request settled
    offered_rps: float
    #: the injector that drove the scenario's faults (None = healthy run)
    injector: Optional[object] = None

    # -- headline numbers -------------------------------------------------
    @property
    def completed(self) -> int:
        return self.metrics.completed

    @property
    def drop_rate(self) -> float:
        return self.metrics.drop_rate

    @property
    def mean_response_time(self) -> float:
        return self.metrics.mean_response_time()

    @property
    def response_summary(self) -> Summary:
        return self.metrics.response_summary()

    @property
    def redirection_rate(self) -> float:
        if not self.metrics.total:
            return 0.0
        return self.metrics.counters["redirected"] / self.metrics.total

    # -- degradation statistics ---------------------------------------------
    @property
    def fallback_count(self) -> int:
        """Stale-load round-robin fallbacks across all brokers."""
        return self.cluster.total_fallbacks()

    @property
    def retry_count(self) -> int:
        """Client connection retries (graceful degradation only)."""
        return self.metrics.counters["retries"]

    @property
    def reset_count(self) -> int:
        """Connections reset by node crashes."""
        return sum(s.connections_reset
                   for s in self.cluster.servers.values())

    # -- substrate statistics -----------------------------------------------
    def cache_hit_rate(self) -> float:
        """Aggregate *page-cache* (RAM) hit rate across all nodes.

        Not the DNS cache — see :meth:`dns_cache_hit_rate` for that.
        """
        hits = sum(n.cache.hits for n in self.cluster.nodes)
        misses = sum(n.cache.misses for n in self.cluster.nodes)
        total = hits + misses
        return hits / total if total else 0.0

    def dns_cache_hit_rate(self) -> float:
        """Client-side DNS cache hit rate (TTL-driven; not the page cache)."""
        return self.cluster.dns.cache_hit_rate

    def p95_response_time(self) -> float:
        """95th-percentile response time over completed requests.

        Routed through ``Metrics.response_percentile`` (and from there
        the shared ``repro.obs.percentiles`` helper) rather than a
        local re-derivation."""
        if not self.metrics.response_times():
            return 0.0
        return self.metrics.response_percentile(95)

    @property
    def replications(self) -> int:
        """Hot-file copies landed by the replication daemon (0 when off)."""
        return self.cluster.total_replications()

    def remote_read_fraction(self) -> float:
        fs = self.cluster.fs
        total = fs.local_reads + fs.remote_reads
        return fs.remote_reads / total if total else 0.0

    def cpu_shares(self) -> dict[str, float]:
        return self.cluster.cpu_share_by_category()

    def balance_index(self) -> float:
        """Jain's fairness index over bytes served per node, in (0, 1].

        1.0 = perfectly even service; 1/n = one node served everything.
        This quantifies how well a policy's *second-stage* assignment
        evened out the byte load.
        """
        served = [0.0] * len(self.cluster.nodes)
        for rec in self.metrics.records:
            if rec.ok and rec.served_by is not None:
                served[rec.served_by] += rec.size
        total = sum(served)
        if total <= 0:
            return 1.0
        n = len(served)
        square_of_sum = total * total
        sum_of_squares = sum(s * s for s in served)
        return square_of_sum / (n * sum_of_squares)

    def phase_means(self) -> dict[str, float]:
        acc = self.metrics.phase_breakdown()
        return {phase: acc.mean(phase) for phase in acc.phases()}

    def summary_line(self) -> str:
        rt = self.mean_response_time
        return (f"{self.scenario}: offered={self.offered_rps:.1f} rps, "
                f"completed={self.completed}, drop={self.drop_rate:.1%}, "
                f"mean_rt={rt:.3f}s")


def replay(sim: Simulator, workload: Iterable[Arrival],
           fetch: Callable[[Arrival], Event]):
    """Kernel process: at each arrival's time call ``fetch(arrival)``,
    which starts one request and returns its process, then wait until
    every request has settled."""
    procs = []
    for arrival in workload:
        if arrival.time > sim.now:
            yield sim.timeout(arrival.time - sim.now)
        procs.append(fetch(arrival))
    if procs:
        yield join(sim, procs)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute one scenario to completion and aggregate its metrics."""
    cluster = SWEBCluster(
        spec=scenario.spec,
        policy=scenario.policy,
        params=scenario.params,
        seed=scenario.seed,
        backlog=scenario.backlog,
        dns_ttl=scenario.dns_ttl,
        tracer=scenario.tracer,
        dispatcher=scenario.dispatcher,
    )
    scenario.corpus.install(cluster)
    injector = (cluster.attach_faults(scenario.faults)
                if scenario.faults is not None else None)
    sim = cluster.sim
    from dataclasses import replace as _replace
    nhosts = max(1, scenario.hosts_per_profile)
    clients: dict[str, list[Client]] = {}
    for name, profile in scenario.profiles.items():
        hosts = []
        for i in range(nhosts):
            prof = profile if nhosts == 1 else _replace(
                profile, name=f"{profile.name}#{i}",
                domain=f"{profile.domain}#{i}")
            hosts.append(Client(cluster, profile=prof,
                                timeout=scenario.client_timeout))
        clients[name] = hosts
    cursors = {name: 0 for name in clients}

    def fetch(arrival: Arrival) -> Event:
        hosts = clients.get(arrival.client)
        if hosts is None:
            raise KeyError(
                f"workload references unknown client {arrival.client!r}")
        # Spread a profile's requests over its hosts round-robin.
        idx = cursors[arrival.client]
        cursors[arrival.client] = (idx + 1) % len(hosts)
        return hosts[idx].fetch(arrival.path)

    done = sim.spawn(replay(sim, scenario.workload, fetch),
                     name="workload-driver")
    sim.run(until=done)
    return ScenarioResult(
        scenario=scenario.name,
        cluster=cluster,
        metrics=cluster.metrics,
        duration=scenario.workload.duration,
        finished_at=sim.now,
        offered_rps=scenario.workload.offered_rps,
        injector=injector,
    )


def find_max_rps(make_scenario: Callable[[int], Scenario],
                 start: int = 1, cap: int = 256,
                 drop_threshold: float = 0.02,
                 ) -> tuple[int, dict[int, ScenarioResult]]:
    """The paper's procedure: "the maximum rps is determined by fixing the
    average file size and increasing the rps until requests start to
    fail".

    Doubles the offered rate until failure (drop rate above
    ``drop_threshold``), then bisects.  Returns the highest integer rps
    that did not fail, plus every evaluated result.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    results: dict[int, ScenarioResult] = {}

    def fails(rps: int) -> bool:
        if rps not in results:
            results[rps] = run_scenario(make_scenario(rps))
        return results[rps].drop_rate > drop_threshold

    if fails(start):
        return 0, results
    lo = start
    hi = None
    probe = start
    while hi is None:
        probe = min(probe * 2, cap)
        if fails(probe):
            hi = probe
        else:
            lo = probe
            if probe >= cap:
                return cap, results
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fails(mid):
            hi = mid
        else:
            lo = mid
    return lo, results
