"""Run one fuzz case through the real execution paths, twice.

The executor never judges — it only *collects*.  Each case runs through
the same entry points the experiments use (:func:`repro.workload.run_fluid`,
:func:`repro.experiments.run_scenario`, :func:`repro.experiments.run_grid`)
and everything the oracle later inspects is gathered into a flat
:class:`CaseOutcome`: independent-run fingerprints, serial-vs-pooled
grid results, request-accounting totals, per-node page-cache byte
accounting, and per-trace reconciliation failures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from dataclasses import replace

from ..cluster.topology import heterogeneous_meiko, meiko_cs2
from ..core import CostParameters
from ..experiments import (
    FluidCell,
    ScenarioResult,
    run_grid,
    run_scenario,
    scenario_fingerprint,
)
from ..geo import GeoResult, GeoScenario, GeoSpec, SiteSpec, WanLink, run_geo
from ..obs import Tracer
from ..sched import SpeedFactors
from ..sim import RandomStreams
from ..workload import (
    FluidScenario,
    Scenario,
    burst_workload,
    make_adversary,
    run_fluid,
    uniform_corpus,
    uniform_sampler,
    zipf_sampler,
)
from .generator import FuzzConfig

__all__ = [
    "CaseOutcome",
    "build_fluid_scenario",
    "build_geo_scenario",
    "build_geo_spec",
    "build_scenario",
    "case_speed_factors",
    "run_case",
]

#: per-node hardware palette for fuzzed heterogeneous clusters: cycled
#: to any node count (unlike MIXED_GENERATION's fixed six), covering
#: fast/baseline/slow generations on every resource.
_HET_CPU = (1.5, 1.0, 0.5, 1.25, 0.75, 1.0)
_HET_DISK = (1.25, 1.0, 0.75, 1.0, 0.75, 1.25)
_HET_MEM = (1.25, 1.0, 0.75, 1.25, 1.0, 0.75)


def case_speed_factors(nodes: int) -> SpeedFactors:
    """Deterministic mixed-generation factors for any cluster size."""
    return SpeedFactors(
        cpu=tuple(_HET_CPU[i % len(_HET_CPU)] for i in range(nodes)),
        disk=tuple(_HET_DISK[i % len(_HET_DISK)] for i in range(nodes)),
        mem=tuple(_HET_MEM[i % len(_HET_MEM)] for i in range(nodes)))


def _workload_seed(config: FuzzConfig) -> int:
    """The workload generator's seed, derived from the case's sim seed
    so the arrival process is independent of the cluster's streams."""
    return (config.seed * 2_654_435_761 + 97) % (2 ** 63)


@dataclass(frozen=True)
class CaseOutcome:
    """Everything the oracle inspects about one executed case."""

    config: FuzzConfig
    #: determinism fingerprints of the independent full runs
    fingerprints: tuple[str, ...]
    #: requests the workload offered / that reached a terminal state /
    #: that completed OK / that were dropped
    offered: int
    settled: int
    completed: int
    dropped: int
    finished_at: float
    #: per-node page-cache byte accounting (per-client path only)
    caches: tuple[dict[str, float], ...] = ()
    #: traces inspected / reconciliation failures found
    trace_checked: int = 0
    trace_failures: tuple[str, ...] = ()
    #: grid fingerprints at workers=1 vs workers=2 (fluid path only)
    grid_fingerprints: tuple[str, ...] = ()
    #: canonical-JSON merged registry snapshots, workers=1 vs workers=2
    merged_snapshots: tuple[str, ...] = ()
    #: per-edge geo replica accounting: resident bytes vs budget (geo path)
    geo_budgets: tuple[dict[str, float], ...] = ()


# -- builders (module-level, so grid cells pickle) -------------------------
def build_fluid_scenario(config: FuzzConfig, seed: Optional[int] = None
                         ) -> FluidScenario:
    """Materialize a fluid-path scenario from a fuzz config."""
    scenario = FluidScenario(
        name=config.case_id, nodes=config.nodes, rate=config.rate,
        n_requests=config.n_requests,
        n_paths=max(64, config.n_files or 256),
        alpha=config.alpha, seed=config.seed if seed is None else seed,
        policy=config.policy)
    if config.heterogeneous:
        scenario = scenario.with_speed_factors(
            case_speed_factors(config.nodes))
    scenario.validate()
    return scenario


def build_scenario(config: FuzzConfig) -> Scenario:
    """Materialize a per-client-path scenario (fresh tracer each call)."""
    spec = (heterogeneous_meiko(config.nodes, case_speed_factors(config.nodes))
            if config.heterogeneous else meiko_cs2(config.nodes))
    corpus = uniform_corpus(config.n_files, config.file_bytes, config.nodes)
    rng = RandomStreams(seed=_workload_seed(config))
    overrides: dict[str, Any] = {}
    if config.adversary is not None:
        workload, overrides = make_adversary(
            config.adversary, corpus, rng,
            rps=config.rps, duration=config.duration)
    elif config.alpha is not None:
        workload = burst_workload(
            config.rps, config.duration,
            zipf_sampler(corpus, rng, alpha=config.alpha))
    else:
        workload = burst_workload(config.rps, config.duration,
                                  uniform_sampler(corpus, rng))
    params = CostParameters(graceful_degradation=config.graceful,
                            coop_cache=config.coop_cache,
                            replicate=config.replicate)
    kwargs: dict[str, Any] = {"dns_ttl": config.dns_ttl,
                              "hosts_per_profile": config.hosts_per_profile}
    kwargs.update(overrides)
    return Scenario(name=config.case_id, spec=spec, corpus=corpus,
                    workload=workload, policy=config.policy,
                    seed=config.seed, params=params, faults=config.faults,
                    tracer=Tracer(max_requests=64, max_records=0), **kwargs)


# -- per-run collection ----------------------------------------------------
def _node_cache_accounts(nodes) -> list[dict[str, float]]:
    """Page-cache byte accounting for one node list, from the live caches."""
    accounts = []
    for node in nodes:
        cache = node.cache
        accounts.append({
            "node": float(node.id),
            "used_bytes": float(cache.used_bytes),
            "capacity_bytes": float(cache.capacity),
            "entry_bytes": float(sum(size for _, size in cache.entries())),
            "hits": float(cache.hits),
            "misses": float(cache.misses),
            "evictions": float(cache.evictions),
        })
    return accounts


def _cache_accounts(result: ScenarioResult) -> tuple[dict[str, float], ...]:
    """Per-node page-cache byte accounting (per-client path)."""
    return tuple(_node_cache_accounts(result.cluster.nodes))


def _trace_failures(scenario: Scenario, result: ScenarioResult,
                    drained: bool) -> tuple[int, tuple[str, ...]]:
    """Reconcile every sampled trace against its record's latency.

    Only records the client saw *complete* are checked (the same filter
    ``sweb-repro trace`` applies): a dropped record's latency is cut
    short at the reset/timeout while the simulated server-side events
    legitimately run on.  Structural completeness
    (``RequestTrace.problems()``) is additionally restricted to *drained*
    runs: the sim stops the instant the last request settles, so
    server-side work stalled by a fault or outliving a timed-out client
    leaves open spans by design.
    """
    tracer = scenario.tracer
    if tracer is None:
        return 0, ()
    checked = 0
    failures = []
    for rec in result.metrics.records:
        trace = tracer.get(rec.req_id)
        if trace is None or not rec.ok or rec.response_time is None:
            continue
        checked += 1
        if drained:
            for problem in trace.problems():
                failures.append(f"req {rec.req_id}: {problem}")
        if not trace.reconciles(rec.response_time):
            failures.append(
                f"req {rec.req_id}: stages do not reconcile with "
                f"latency {rec.response_time!r}")
    return checked, tuple(failures)


def _canonical_snapshot(snapshot: dict[str, Any]) -> str:
    return json.dumps(snapshot, sort_keys=True)


def _run_fluid_case(config: FuzzConfig) -> CaseOutcome:
    scenario = build_fluid_scenario(config)
    first = run_fluid(scenario, keep_records=False)
    second = run_fluid(scenario, keep_records=False)

    # the cross-worker merge check: a tiny grid at two derived seeds,
    # folded serially and through a 2-worker pool
    cells = [FluidCell(cell_id=f"{config.case_id}/g{k}",
                       scenario=build_fluid_scenario(
                           config, seed=config.seed + k))
             for k in range(2)]
    serial = run_grid(cells, workers=1)
    pooled = run_grid(cells, workers=2)

    return CaseOutcome(
        config=config,
        fingerprints=(first.fingerprint, second.fingerprint),
        offered=scenario.n_requests,
        settled=first.n_requests,
        completed=int(sum(first.served)),
        dropped=0,
        finished_at=first.finished_at,
        grid_fingerprints=(serial.grid_fingerprint, pooled.grid_fingerprint),
        merged_snapshots=(_canonical_snapshot(serial.merged),
                          _canonical_snapshot(pooled.merged)),
    )


def _run_scenario_case(config: FuzzConfig) -> CaseOutcome:
    first_scenario = build_scenario(config)
    offered = len(first_scenario.workload.arrivals)
    first = run_scenario(first_scenario)
    second = run_scenario(build_scenario(config))

    settled = sum(1 for rec in first.metrics.records if rec.end is not None)
    completed = sum(1 for rec in first.metrics.records if rec.ok)
    dropped = sum(1 for rec in first.metrics.records if rec.dropped)
    drained = (config.faults is None and config.adversary is None
               and dropped == 0 and settled == offered)
    checked, failures = _trace_failures(first_scenario, first, drained)

    return CaseOutcome(
        config=config,
        fingerprints=(scenario_fingerprint(first),
                      scenario_fingerprint(second)),
        offered=offered,
        settled=settled,
        completed=completed,
        dropped=dropped,
        finished_at=first.finished_at,
        caches=_cache_accounts(first),
        trace_checked=checked,
        trace_failures=failures,
    )


def build_geo_spec(config: FuzzConfig) -> GeoSpec:
    """The drawn multi-site topology: one origin plus 0..2 edges, each
    edge behind its drawn WAN latency; the edge-to-edge path routes
    through the origin (latency sum, half bandwidth)."""
    sites = [SiteSpec("origin", replace(meiko_cs2(config.nodes),
                                       name="origin"), weight=2.0)]
    links = []
    for i, latency in enumerate(config.geo_edge_latencies):
        name = f"edge{i}"
        sites.append(SiteSpec(name, replace(meiko_cs2(2), name=name),
                              weight=1.0))
        links.append(("origin", name,
                      WanLink(latency=latency,
                              bandwidth=config.geo_wan_bandwidth)))
    if len(sites) == 3:
        links.append(("edge0", "edge1",
                      WanLink(latency=sum(config.geo_edge_latencies),
                              bandwidth=config.geo_wan_bandwidth / 2)))
    return GeoSpec(name=config.case_id, sites=tuple(sites),
                   links=tuple(links), origin="origin")


def build_geo_scenario(config: FuzzConfig) -> GeoScenario:
    """Materialize a geo-path scenario from a fuzz config."""
    return GeoScenario(
        name=config.case_id, spec=build_geo_spec(config),
        n_files=config.n_files, file_bytes=config.file_bytes,
        hot_files=max(4, config.n_files // 4),
        alpha=config.alpha if config.alpha is not None else 1.1,
        rps=float(config.rps), duration=config.duration, seed=config.seed,
        graceful=config.graceful,
        edge_budget_bytes=config.geo_budget_mb * 1e6)


def _geo_fingerprint(result: GeoResult) -> str:
    """Repr-level digest of one geo run: every population's exact
    response times plus the WAN/placement counters."""
    digest = hashlib.sha256()
    for site, pop in sorted(result.populations.items()):
        digest.update(
            f"{site} {pop.offered} {pop.completed} {pop.dropped} "
            f"{pop.lost} {pop.spilled} {pop.response_times!r}\n".encode())
    digest.update(repr((result.edge_hit_rate, result.wan_reads,
                        result.wan_bytes, result.placements, result.spills,
                        result.partition_spills, result.unroutable,
                        result.finished_at)).encode())
    return digest.hexdigest()


def _run_geo_case(config: FuzzConfig) -> CaseOutcome:
    first = run_geo(build_geo_scenario(config))
    second = run_geo(build_geo_scenario(config))

    pops = first.populations.values()
    offered = sum(p.offered for p in pops)
    completed = sum(p.completed for p in pops)
    dropped = sum(p.dropped for p in pops)
    settled = completed + dropped + sum(p.lost for p in pops)

    caches = []
    for _site, cluster in sorted(first.system.clusters.items()):
        caches.extend(_node_cache_accounts(cluster.nodes))
    budgets = tuple(
        {"edge": float(i),
         "resident_bytes": fs.resident_replica_bytes(),
         "budget_bytes": fs.budget_bytes}
        for i, (_site, fs) in enumerate(sorted(first.system.edge_fs.items())))

    return CaseOutcome(
        config=config,
        fingerprints=(_geo_fingerprint(first), _geo_fingerprint(second)),
        offered=offered,
        settled=settled,
        completed=completed,
        dropped=dropped,
        finished_at=first.finished_at,
        caches=tuple(caches),
        geo_budgets=budgets,
    )


def run_case(config: FuzzConfig) -> CaseOutcome:
    """Execute one validated fuzz case and collect its evidence."""
    config.validate()
    if config.mode == "fluid":
        return _run_fluid_case(config)
    if config.mode == "geo":
        return _run_geo_case(config)
    return _run_scenario_case(config)
