"""The four benchmark workloads: inputs from a seed, one run, one outcome.

Every workload is open loop in simulated time and runs in this process
on one thread.  ``prepare(seed, scale)`` builds every input from the
seed (corpus, path sampler, arrivals, scenario); ``execute`` drives the
public entry point (``run_scenario``, ``run_fluid`` or ``run_geo``);
``outcome`` reads the result back into an :class:`Outcome` that the
checks and the sim-time metrics share.  ``scale`` shrinks the request
count for the self-test; the benchmark always runs at ``scale=1``.

One benchmark run executes ``replicas`` independent replicas, replica
``i`` of seed ``s`` being built from seed ``s * 1000 + i``
(:func:`replica_seed`), and pools their requests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np
from repro.cluster import meiko_cs2
from repro.experiments.cache_coop import CONFIGS, N_HOT, TAIL_WEIGHT, \
    hot_cold_corpus
from repro.experiments.runner import run_scenario
from repro.geo import GeoScenario, run_geo
from repro.sim import RandomStreams
from repro.workload import FluidScenario, Scenario, bimodal_corpus, \
    burst_workload, run_fluid, uniform_sampler, zipf_sampler

__all__ = ["Outcome", "WORKLOADS", "Workload", "replica_seed"]


def replica_seed(seed: int, replica: int) -> int:
    """Input seed of replica ``replica`` in a run at ``seed``."""
    return seed * 1000 + replica


@dataclass
class Outcome:
    """What one run produced, in arrival order, plus its bookkeeping.

    ``starts`` / ``latencies`` / ``ok`` hold one entry per request that
    reached a cluster; ``lost`` counts arrivals that never did (geo
    requests GeoDNS could not route).  ``latencies`` is NaN for a
    request that never settled.  ``counted`` is (completed, failed) as
    the program's own counters tally them, and ``arrivals`` the number of
    requests the workload generated; neither is derived from the records.
    """

    offered: int
    starts: np.ndarray
    latencies: np.ndarray
    ok: np.ndarray
    lost: int
    digest: str
    events: int
    sim_end: float
    counted: tuple[int, int]
    arrivals: int
    #: extra equalities the workload asserts (name -> (got, expected))
    identities: dict[str, tuple[Any, Any]] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return int(self.ok.sum())

    @property
    def failed(self) -> int:
        return self.offered - self.completed

    @property
    def unsettled(self) -> int:
        return int(np.isnan(self.latencies).sum())


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the fixed numbers its metrics use."""

    name: str
    #: fixed latency limit for ``slo_miss_frac``, simulated seconds
    slo_s: float
    #: arrivals before this simulated time are left out of the sim-time
    #: metrics (0 = every request counts; the run starts with cold caches)
    warmup_s: float
    #: independent replicas pooled by one run (more requests, and for
    #: seeded corpora more corpora, behind every sim-time percentile)
    replicas: int
    prepare: Callable[[int, float], Any]
    execute: Callable[[Any], Any]
    outcome: Callable[[Any], Outcome]
    #: the timed re-runs' entry point and their outcome digest; default
    #: to ``execute`` and ``outcome(...).digest``
    execute_timed: Optional[Callable[[Any], Any]] = None
    fingerprint: Optional[Callable[[Any], str]] = None

    def timed(self, prepared: Any) -> Any:
        return (self.execute_timed or self.execute)(prepared)

    def digest(self, result: Any) -> str:
        if self.fingerprint is not None:
            return self.fingerprint(result)
        return self.outcome(result).digest


def _hash_records(records, digest) -> tuple[list, list, list]:
    """Fold per-client request records into ``digest``; return columns."""
    starts, latencies, ok = [], [], []
    nan = float("nan")
    for rec in records:
        end = rec.end
        digest.update(repr((rec.req_id, rec.start.hex(),
                            None if end is None else end.hex(), rec.status,
                            rec.drop_reason, rec.served_by, rec.redirected,
                            rec.retries)).encode())
        starts.append(rec.start)
        latencies.append(nan if end is None else end - rec.start)
        ok.append(bool(rec.ok) and end is not None)
    return starts, latencies, ok


def _counted(metrics) -> tuple[int, int]:
    """(completed, failed) by a cluster's ``http`` counters: a failure is
    a drop (refused, timeout, dns, reset) or a non-200 answer."""
    errors = sum(n for key, n in metrics.counters.as_dict().items()
                 if key.startswith("status_") and key != "status_200")
    return metrics.completed, metrics.dropped + errors


def _scenario_outcome(result) -> Outcome:
    metrics = result.metrics
    digest = hashlib.sha256()
    starts, latencies, ok = _hash_records(metrics.records, digest)
    sim = result.cluster.sim
    digest.update(repr((sim.event_count, sim.now.hex())).encode())
    arrivals = round(result.offered_rps * result.duration)
    return Outcome(
        offered=len(starts), starts=np.array(starts),
        latencies=np.array(latencies), ok=np.array(ok, dtype=bool), lost=0,
        digest=digest.hexdigest(), events=sim.event_count, sim_end=sim.now,
        counted=_counted(metrics), arrivals=arrivals,
        identities={"completed counter == ok records":
                    (metrics.completed, sum(ok)),
                    "records == arrivals": (len(starts), arrivals)})


# -- meiko_bimodal -----------------------------------------------------------
#: Table 3's mix: 150 files, half 0.8-1.5 MB images, half log-uniform
#: 100 B-30 KB pages; its expected total size
_BIMODAL_BYTES = 150 * 0.5 * (1.15e6 + (30e3 - 100.0) / math.log(300.0))


#: candidate corpora drawn per seed (see :func:`_bimodal_corpus`)
_BIMODAL_DRAWS = 16


def _bimodal_corpus(seed: int):
    """Table 3's corpus: of ``_BIMODAL_DRAWS`` draws, the one whose total
    size is nearest the mix's (0.7 % off on average, 4 % at worst).

    The seed then moves which files are large and where they live, but
    hardly how many bytes the run serves: unconditioned, the large-file
    count alone moves the load by ~8 % and p50 by up to 50 %.  A fixed
    number of draws keeps the set-up's cost the same for every seed.
    """
    return min((bimodal_corpus(150, 6, large_frac=0.5,
                               seed=(seed << 16) | draw)
                for draw in range(_BIMODAL_DRAWS)),
               key=lambda corpus: abs(corpus.total_bytes / _BIMODAL_BYTES
                                      - 1.0))


def _prepare_meiko_bimodal(seed: int, scale: float) -> Scenario:
    duration = max(2, round(200 * scale))
    corpus = _bimodal_corpus(seed)
    sampler = uniform_sampler(corpus, RandomStreams(seed))
    workload = burst_workload(25, duration, sampler)
    return Scenario(name=f"meiko_bimodal-s{seed}", spec=meiko_cs2(6),
                    corpus=corpus, workload=workload, policy="sweb",
                    seed=seed, dns_ttl=300.0, hosts_per_profile=4)


# -- zipf_coop ---------------------------------------------------------------
def _prepare_zipf_coop(seed: int, scale: float) -> Scenario:
    duration = max(2, round(1200 * scale))
    corpus = hot_cold_corpus(6)
    sampler = zipf_sampler(corpus, RandomStreams(seed), alpha=1.0,
                           hot_set=N_HOT, tail_weight=TAIL_WEIGHT)
    workload = burst_workload(6, duration, sampler)
    return Scenario(name=f"zipf_coop-s{seed}", spec=meiko_cs2(6),
                    corpus=corpus, workload=workload, policy="sweb",
                    seed=seed, client_timeout=600.0, backlog=1024,
                    params=CONFIGS["dir+repl"]())


# -- fluid_zipf --------------------------------------------------------------
def _prepare_fluid_zipf(seed: int, scale: float) -> FluidScenario:
    return FluidScenario(name=f"fluid_zipf-s{seed}",
                         n_requests=max(1_000, round(1_000_000 * scale)),
                         rate=5_000.0, seed=seed)


def _run_fluid_untimed(scenario: FluidScenario):
    return run_fluid(scenario, keep_records=True)


def _run_fluid_timed(scenario: FluidScenario):
    return run_fluid(scenario, keep_records=False)


def _fluid_outcome(result) -> Outcome:
    records = result.records
    latencies = np.array(records.latencies)
    return Outcome(
        offered=result.n_requests, starts=np.array(records.arrivals),
        latencies=latencies, ok=np.ones(len(latencies), dtype=bool), lost=0,
        digest=result.fingerprint, events=result.event_count,
        sim_end=result.finished_at,
        counted=(sum(result.served), 0), arrivals=result.scenario.n_requests,
        identities={"records == requests": (len(latencies),
                                            result.n_requests)})


# -- geo3 --------------------------------------------------------------------
def _prepare_geo3(seed: int, scale: float) -> GeoScenario:
    rps = 40.0
    return GeoScenario(name=f"geo3-s{seed}", rps=rps,
                       duration=max(1.0, round(125 * scale)), seed=seed,
                       graceful=True)


def _geo_outcome(result) -> Outcome:
    digest = hashlib.sha256()
    starts, latencies, ok = [], [], []
    for site in sorted(result.system.clusters):
        s, lat, o = _hash_records(result.system.clusters[site].metrics.records,
                                  digest)
        starts += s
        latencies += lat
        ok += o
    order = np.argsort(starts, kind="stable")
    pops = result.populations.values()
    offered = sum(p.offered for p in pops)
    lost = sum(p.lost for p in pops)
    sim = result.system.sim
    digest.update(repr((sim.event_count, sim.now.hex(), sorted(
        (p.site, p.offered, p.completed, p.dropped, p.lost, p.spilled)
        for p in pops))).encode())
    arrivals = int(result.scenario.rps * result.scenario.duration)
    counts = [_counted(c.metrics) for c in result.system.clusters.values()]
    return Outcome(
        offered=offered, starts=np.array(starts)[order],
        latencies=np.array(latencies)[order],
        ok=np.array(ok, dtype=bool)[order],
        lost=lost, digest=digest.hexdigest(), events=sim.event_count,
        sim_end=sim.now,
        counted=(sum(c for c, _ in counts), sum(f for _, f in counts) + lost),
        arrivals=arrivals,
        identities={"site offered sum == arrivals": (offered, arrivals),
                    "records + unroutable == offered": (len(starts) + lost,
                                                        offered),
                    "site completed == ok records": (
                        sum(p.completed for p in pops), sum(ok))})


WORKLOADS: dict[str, Workload] = {
    "meiko_bimodal": Workload(
        "meiko_bimodal", slo_s=2.7, warmup_s=0.0, replicas=8,
        prepare=_prepare_meiko_bimodal, execute=run_scenario,
        outcome=_scenario_outcome),
    "zipf_coop": Workload(
        "zipf_coop", slo_s=3.2, warmup_s=120.0, replicas=5,
        prepare=_prepare_zipf_coop, execute=run_scenario,
        outcome=_scenario_outcome),
    "fluid_zipf": Workload(
        "fluid_zipf", slo_s=0.002, warmup_s=0.0, replicas=3,
        prepare=_prepare_fluid_zipf, execute=_run_fluid_untimed,
        outcome=_fluid_outcome, execute_timed=_run_fluid_timed,
        fingerprint=lambda result: result.fingerprint),
    "geo3": Workload(
        "geo3", slo_s=0.17, warmup_s=0.0, replicas=6,
        prepare=_prepare_geo3, execute=run_geo, outcome=_geo_outcome),
}
