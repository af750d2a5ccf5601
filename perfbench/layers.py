"""Per-layer counters read from public attributes after an untraced run.

Every number here is a count or a simulated quantity, so it repeats
exactly at a fixed seed.  Host-time and self-share metrics come from the
traced run instead (see ``hooks.py`` and ``harness.py``).
"""

from __future__ import annotations

import gc

from repro.geo.fs import GeoFileSystem
from repro.sim import FairShareServer
from repro.web.metrics import PHASE_NAMES

__all__ = ["COUNTER_METRICS", "layer_counters"]

#: metric name -> unit, for every counter :func:`layer_counters` returns
COUNTER_METRICS = {
    "req_fail_frac": "ratio",
    "sim.events_per_req": "events/req",
    "sim.fairshare.mean_jobs": "jobs",
    "cluster.fs.remote_frac": "ratio",
    "cluster.page_cache.hit_rate": "ratio",
    "cluster.cpu.util": "ratio",
    "cluster.disk.util": "ratio",
    "cache.peer_read_frac": "ratio",
    "cache.replications": "count",
    **{f"web.phase.{phase}_s": "s" for phase in PHASE_NAMES},
    "web.retries_per_req": "1/req",
    "core.redirect_frac": "ratio",
    "core.loadd.broadcasts_per_sim_s": "1/s",
    "core.broker.fallbacks": "count",
    "workload.fluid.redirect_frac": "ratio",
    "geo.edge_hit_rate": "ratio",
    "geo.wan_reads_per_req": "1/req",
    "geo.spills": "count",
    "geo.placements": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _clusters(result) -> tuple[list, object]:
    """(SWEB clusters, Simulator) behind a run_scenario / run_geo result."""
    if hasattr(result, "system"):
        return list(result.system.clusters.values()), result.system.sim
    if hasattr(result, "cluster"):
        return [result.cluster], result.cluster.sim
    return [], None


def _fair_share_servers(sim) -> list:
    """Every FairShareServer bound to ``sim`` (the run's whole hardware)."""
    if sim is None:
        return []
    return [obj for obj in gc.get_objects()
            if isinstance(obj, FairShareServer) and obj.sim is sim]


def layer_counters(result, outcome) -> dict[str, float]:
    """Every :data:`COUNTER_METRICS` value for one finished run."""
    offered = outcome.offered
    out = {name: 0.0 for name in COUNTER_METRICS}
    out["req_fail_frac"] = _ratio(outcome.failed, offered)
    out["sim.events_per_req"] = _ratio(outcome.events, offered)

    clusters, sim = _clusters(result)
    servers = _fair_share_servers(sim)
    out["sim.fairshare.mean_jobs"] = _ratio(
        sum(s.population_integral() for s in servers),
        sum(s.busy_integral() for s in servers))

    elapsed = outcome.sim_end
    nodes = [node for c in clusters for node in c.nodes]
    if nodes and elapsed > 0:
        capacity = elapsed * len(nodes)
        out["cluster.cpu.util"] = sum(
            n.cpu.busy_integral() for n in nodes) / capacity
        out["cluster.disk.util"] = sum(
            n.disk.server.busy_integral() for n in nodes) / capacity
    hits = sum(n.cache.hits for n in nodes)
    out["cluster.page_cache.hit_rate"] = _ratio(
        hits, hits + sum(n.cache.misses for n in nodes))

    fss = [c.fs for c in clusters]
    local = sum(fs.local_reads for fs in fss)
    remote = sum(fs.remote_reads for fs in fss)
    wan_meta = sum(fs.edge_hits + fs.wan_reads for fs in fss
                   if isinstance(fs, GeoFileSystem))
    out["cluster.fs.remote_frac"] = _ratio(remote, local + remote)
    out["cache.peer_read_frac"] = _ratio(
        sum(fs.replica_reads + fs.peer_cache_reads for fs in fss),
        local + remote + wan_meta)
    out["cache.replications"] = float(sum(c.total_replications()
                                          for c in clusters))

    completed = 0
    for cluster in clusters:
        metrics = cluster.metrics
        phases = metrics.phase_breakdown()
        for phase in PHASE_NAMES:
            out[f"web.phase.{phase}_s"] += phases.total(phase)
        completed += metrics.completed
        out["web.retries_per_req"] += metrics.counters["retries"]
        out["core.redirect_frac"] += metrics.counters["redirected"]
        out["core.loadd.broadcasts_per_sim_s"] += sum(
            d.broadcasts for d in cluster.loadds.values())
        out["core.broker.fallbacks"] += cluster.total_fallbacks()
    for phase in PHASE_NAMES:
        out[f"web.phase.{phase}_s"] = _ratio(out[f"web.phase.{phase}_s"],
                                             completed)
    out["web.retries_per_req"] = _ratio(out["web.retries_per_req"], offered)
    out["core.redirect_frac"] = _ratio(out["core.redirect_frac"], offered)
    out["core.loadd.broadcasts_per_sim_s"] = _ratio(
        out["core.loadd.broadcasts_per_sim_s"], elapsed)

    if hasattr(result, "redirected") and hasattr(result, "fingerprint"):
        out["workload.fluid.redirect_frac"] = _ratio(result.redirected,
                                                     offered)
    if hasattr(result, "system"):
        out["geo.edge_hit_rate"] = result.edge_hit_rate
        out["geo.wan_reads_per_req"] = _ratio(result.wan_reads, offered)
        out["geo.spills"] = float(result.spills)
        out["geo.placements"] = float(result.placements)
    return out
