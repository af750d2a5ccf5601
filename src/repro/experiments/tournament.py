"""X11 scheduler tournament — the policy zoo on hom/het × uniform/Zipf.

The paper evaluates SWEB's multi-faceted cost model against round-robin
and file locality on homogeneous testbeds (§4.2).  The modern cluster-
scheduling literature asks a harder question: how do cost-model
scheduling, queue-length scheduling (JSQ, power-of-two-choices),
work-aware scheduling (least-work-left) and locality-aware hashing
compare when the *cluster itself* is heterogeneous?  This experiment
runs every fluid-capable policy (``repro.sched.fluid_policy_names``)
across a 2×2 grid —

* **cluster**: homogeneous baseline vs the mixed-generation cluster
  (:data:`repro.sched.MIXED_GENERATION`, equal aggregate CPU);
* **popularity**: uniform vs Zipf(1.0) with a RAM-hot head —

at million-request scale per cell (full mode) through the sharded grid
runner, so every cell carries a determinism fingerprint and the merged
result is bit-identical across worker counts.  A smaller per-client
confirmation pass replays the head-to-heads on the full httpd stack
over :func:`repro.cluster.heterogeneous_meiko`.

Expected ordering (docs/SCHEDULING.md): on heterogeneous clusters the
load-blind policies (round-robin, random) go unstable on the slow
nodes; count-based JSQ/po2 recover most of the loss; work-aware SWEB
and LWL recover it all; chash trades mean latency for cache locality.
"""

from __future__ import annotations

from typing import Optional

from ..cluster import heterogeneous_meiko
from ..sched import MIXED_GENERATION, fluid_policy_names
from ..workload import FluidScenario, Scenario, run_fluid
from .base import ExperimentReport
from .runner import ScenarioResult, run_scenario
from .shard import FluidCell, run_grid
from .table1 import table1_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run", "make_cells", "fluid_cell", "client_scenario",
           "CLUSTERS", "POPULARITY", "GOLDEN_SWEB_50K"]

#: offered rate (rps): ~0.9 utilisation on the homogeneous cluster —
#: loaded enough to separate the policies, stable enough that mean
#: latency does not drift with run length
TOURNAMENT_RATE = 5500.0

#: cluster axis: label -> speed factors (None = homogeneous)
CLUSTERS = {"hom": None, "het": MIXED_GENERATION}

#: popularity axis: label -> Zipf alpha (None = uniform)
POPULARITY = {"uniform": None, "zipf": 1.0}

#: the pre-zoo fluid fingerprint of the default 50 k-request SWEB cell;
#: the refactored dispatch must reproduce it bit for bit (also pinned
#: in tests/test_sched_policies.py)
GOLDEN_SWEB_50K = ("7a743f16064058ede5e5312f8e7c7f51"
                   "ff551719da6702e4466a58ace78cdb8a")


def fluid_cell(policy: str, cluster: str, popularity: str,
               n_requests: int, rate: float = TOURNAMENT_RATE,
               seed: int = 1) -> FluidCell:
    """One tournament grid point."""
    scenario = FluidScenario(
        name=f"tourney-{policy}-{cluster}-{popularity}",
        policy=policy, n_requests=n_requests, rate=rate,
        alpha=POPULARITY[popularity], seed=seed)
    factors = CLUSTERS[cluster]
    if factors is not None:
        scenario = scenario.with_speed_factors(factors.take(scenario.nodes))
    return FluidCell(
        cell_id=f"tourney/{policy}/{cluster}/{popularity}",
        scenario=scenario)


def make_cells(n_requests: int,
               policies: Optional[tuple[str, ...]] = None) -> list[FluidCell]:
    """The full policy × cluster × popularity grid."""
    policies = policies or fluid_policy_names()
    return [fluid_cell(policy, cluster, popularity, n_requests)
            for policy in policies
            for cluster in CLUSTERS
            for popularity in POPULARITY]


def client_scenario(policy: str, rps: int = 10, duration: float = 20.0,
                    nodes: int = 6, seed: int = 1) -> Scenario:
    """Per-client confirmation cell: the Table 1 cell on the
    mixed-generation Meiko, full httpd stack."""
    return table1_scenario(heterogeneous_meiko(nodes), 1.5e6, rps, duration,
                           policy, seed, client_timeout=600.0)


def _cell_mean(report, cell_id: str) -> float:
    """Mean fluid latency of one cell, read from its registry snapshot."""
    for cell in report.cells:
        if cell.cell_id == cell_id:
            return cell.snapshot["histograms"]["fluid.latency_s"]["mean"]
    raise KeyError(f"cell {cell_id!r} not in report")


def run(fast: bool = True) -> ExperimentReport:
    n_requests = 60_000 if fast else 1_000_000
    policies = fluid_policy_names()
    report = run_grid(make_cells(n_requests))

    means = {(p, c, z): _cell_mean(report, f"tourney/{p}/{c}/{z}")
             for p in policies for c in CLUSTERS for z in POPULARITY}
    rows = [[p,
             means[(p, "hom", "uniform")], means[(p, "hom", "zipf")],
             means[(p, "het", "uniform")], means[(p, "het", "zipf")]]
            for p in policies]
    table = render_table(
        headers=["policy", "hom/uniform (s)", "hom/zipf (s)",
                 "het/uniform (s)", "het/zipf (s)"],
        rows=rows,
        title=(f"Scheduler tournament — mean latency, "
               f"{n_requests:,} requests/cell at {TOURNAMENT_RATE:.0f} rps, "
               f"6 nodes (het = mixed-generation, equal aggregate CPU)"))

    # Determinism cross-check: the same sub-grid must merge to the same
    # grid fingerprint serially and across a 2-worker pool.
    sub = make_cells(20_000, policies=("sweb", "jsq"))
    serial = run_grid(sub, workers=1)
    pooled = run_grid(sub, workers=2)
    shards_identical = serial.grid_fingerprint == pooled.grid_fingerprint

    # The pre-zoo golden: the default SWEB cell, untouched by the
    # dispatch refactor.
    golden_fp = run_fluid(FluidScenario(n_requests=50_000),
                          keep_records=False).fingerprint

    # Per-client confirmation on the heterogeneous Meiko.
    client_policies = ("sweb", "jsq", "random")
    duration = 20.0 if fast else 60.0
    client: dict[str, ScenarioResult] = {
        p: run_scenario(client_scenario(p, duration=duration))
        for p in client_policies}

    load_aware = ("sweb", "jsq", "po2", "lwl")
    load_blind = ("round-robin", "random")
    worst_aware = max(means[(p, "het", z)]
                      for p in load_aware for z in POPULARITY)
    best_blind = min(means[(p, "het", z)]
                     for p in load_blind for z in POPULARITY)
    comparisons = [
        ComparisonRow(
            "SWEB's cost model wins the heterogeneous uniform grid",
            "(not in paper — our extension)",
            f"sweb {means[('sweb', 'het', 'uniform')]:.4f}s vs best other "
            f"{min(means[(p, 'het', 'uniform')] for p in policies if p != 'sweb'):.4f}s",
            "sweb mean strictly lowest on het/uniform",
            ok=all(means[("sweb", "het", "uniform")]
                   < means[(p, "het", "uniform")]
                   for p in policies if p != "sweb")),
        ComparisonRow(
            "load-blind policies collapse on heterogeneous clusters",
            "cf. arXiv:1103.1207",
            f"worst load-aware {worst_aware:.4f}s vs best load-blind "
            f"{best_blind:.4f}s on the het grids",
            "every load-aware mean beats every load-blind mean",
            ok=worst_aware < best_blind),
        ComparisonRow(
            "two choices beat random placement on every grid",
            "Mitzenmacher's po2 result",
            "po2 vs random mean on all four grids",
            "po2 mean strictly below random's in each cell",
            ok=all(means[("po2", c, z)] < means[("random", c, z)]
                   for c in CLUSTERS for z in POPULARITY)),
        ComparisonRow(
            "sharded tournament merges bit-identically",
            "docs/SCALING.md determinism contract",
            f"workers=1 {serial.grid_fingerprint[:12]}… vs "
            f"workers=2 {pooled.grid_fingerprint[:12]}…",
            "grid fingerprints equal across worker counts",
            ok=shards_identical),
        ComparisonRow(
            "policy dispatch preserves the pre-zoo SWEB fingerprint",
            "bit-identical control",
            f"{golden_fp[:16]}…",
            "default 50k SWEB cell reproduces the golden digest",
            ok=golden_fp == GOLDEN_SWEB_50K),
        ComparisonRow(
            "fluid and per-client models agree on the head-to-heads",
            "(not in paper — our extension)",
            f"per-client het means: sweb "
            f"{client['sweb'].mean_response_time:.2f}s, jsq "
            f"{client['jsq'].mean_response_time:.2f}s, random "
            f"{client['random'].mean_response_time:.2f}s",
            "sweb < random and jsq < random in both models",
            ok=(client["sweb"].mean_response_time
                < client["random"].mean_response_time
                and client["jsq"].mean_response_time
                < client["random"].mean_response_time
                and all(means[("sweb", "het", z)] < means[("random", "het", z)]
                        and means[("jsq", "het", z)]
                        < means[("random", "het", z)]
                        for z in POPULARITY))),
    ]
    notes = (f"Grid fingerprint {report.grid_fingerprint[:16]}… over "
             f"{report.n_requests:,} requests in {len(report.cells)} cells.  "
             "On the het grids the load-blind policies are locally unstable "
             "(the quarter-speed node's queue grows without bound), so "
             "their means scale with run length; the ordering, not the "
             "magnitude, is the result.  chash pays a mean-latency premium "
             "for cache locality — in this fluid model the Zipf head is "
             "already RAM-priced, so locality buys nothing and the skew "
             "shows up undiluted.")
    return ExperimentReport(
        exp_id="X11",
        title="Scheduler tournament on heterogeneous clusters (extension)",
        table=table,
        data={
            "rate": TOURNAMENT_RATE,
            "n_requests_per_cell": n_requests,
            "means": {f"{p}/{c}/{z}": means[(p, c, z)]
                      for p in policies for c in CLUSTERS
                      for z in POPULARITY},
            "fingerprints": dict(report.fingerprints),
            "grid_fingerprint": report.grid_fingerprint,
            "client_means": {p: r.mean_response_time
                             for p, r in client.items()},
        },
        comparisons=comparisons, notes=notes)
