"""Table 3 — non-uniform file sizes: SWEB vs round-robin vs file locality.

"We tested the ability of the system to handle requests with sizes
varying from short, approximately 100 bytes, to relatively long,
approximately 1.5MB. … For lightly loaded systems, SWEB performs
comparably with the others.  For heavily loaded systems (rps ≥ 20), SWEB
has an advantage of 15-60% over round robin and file locality."

The heterogeneity that round-robin cannot adapt to comes from two real
effects modelled here: client-side DNS caching pins each client host to
one server node, and the bimodal size mix makes the pinned byte-load very
uneven across nodes.
"""

from __future__ import annotations

from typing import Optional

from ..cluster import meiko_cs2
from ..core import CostParameters
from ..workload import Scenario, bimodal_corpus, uniform_burst
from .base import ExperimentReport
from .paper_data import TABLE3_CLAIMS
from .runner import ScenarioResult, run_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run", "POLICIES", "run_cell", "table3_scenario"]

POLICIES = ("round-robin", "file-locality", "sweb")


def table3_scenario(rps: int, policy: str = "sweb", duration: float = 30.0,
                    seed: int = 1,
                    params: Optional[CostParameters] = None) -> Scenario:
    """The Table 3 cell: the bimodal mix on the 6-node Meiko, behind 4
    client hosts per population whose resolvers pin them for 300 s."""
    corpus = bimodal_corpus(150, 6, large_frac=0.5, seed=9)
    return Scenario(name=f"t3-{policy}-{rps}rps", spec=meiko_cs2(6),
                    corpus=corpus,
                    workload=uniform_burst(corpus, rps, duration),
                    policy=policy, seed=seed, params=params,
                    dns_ttl=300.0, hosts_per_profile=4)


def run_cell(rps: int, policy: str, duration: float = 30.0,
             seed: int = 1) -> ScenarioResult:
    """Run one (rps, policy) cell of Table 3."""
    return run_scenario(table3_scenario(rps, policy, duration, seed))


def run(fast: bool = True) -> ExperimentReport:
    duration = 15.0 if fast else 30.0
    rps_levels = TABLE3_CLAIMS["rps_levels"]

    results: dict[tuple[int, str], ScenarioResult] = {}
    rows = []
    for rps in rps_levels:
        row = [rps]
        for policy in POLICIES:
            res = run_cell(rps, policy, duration=duration)
            results[(rps, policy)] = res
            row.append(res.mean_response_time)
        rows.append(row)

    table = render_table(
        headers=["rps", "Round Robin", "File Locality", "SWEB"],
        rows=rows,
        title="Table 3 — mean response time (s), non-uniform sizes, "
              "Meiko CS-2", floatfmt=".3f")

    def advantage(rps: int, other: str) -> float:
        base = results[(rps, other)].mean_response_time
        sweb = results[(rps, "sweb")].mean_response_time
        return 1.0 - sweb / base

    heavy = max(rps_levels)
    light = min(rps_levels)
    adv_rr = advantage(heavy, "round-robin")
    adv_fl = advantage(heavy, "file-locality")
    lo, hi = TABLE3_CLAIMS["advantage_range"]
    comparisons = [
        ComparisonRow(
            "light load: SWEB comparable",
            "comparable at low rps",
            f"SWEB/RR = "
            f"{results[(light, 'sweb')].mean_response_time / results[(light, 'round-robin')].mean_response_time:.2f}",
            "within 25% of round robin",
            ok=abs(advantage(light, "round-robin")) < 0.25),
        ComparisonRow(
            f"heavy load ({heavy} rps): SWEB vs RR",
            f"{lo:.0%}-{hi:.0%} advantage",
            f"{adv_rr:.0%}",
            "SWEB at least 15% faster",
            ok=adv_rr >= lo * 0.9),
        ComparisonRow(
            f"heavy load ({heavy} rps): SWEB vs locality",
            f"{lo:.0%}-{hi:.0%} advantage",
            f"{adv_fl:.0%}",
            "SWEB at least 15% faster",
            ok=adv_fl >= lo * 0.9),
        ComparisonRow(
            "SWEB redirection is selective",
            "redirects only what pays off",
            f"{results[(heavy, 'sweb')].redirection_rate:.0%} redirected "
            f"(locality: {results[(heavy, 'file-locality')].redirection_rate:.0%})",
            "far below locality's rate",
            ok=results[(heavy, "sweb")].redirection_rate
               < 0.5 * results[(heavy, "file-locality")].redirection_rate),
    ]
    notes = ("Clients: 4 hosts behind caching resolvers (TTL 300s), the "
             "coarse DNS assignment of §1/§3.1.  " + TABLE3_CLAIMS["heavy_load"])
    return ExperimentReport(exp_id="T3",
                            title="Non-uniform request sizes (Table 3)",
                            table=table,
                            data={f"{rps}/{p}": results[(rps, p)].mean_response_time
                                  for rps in rps_levels for p in POLICIES},
                            comparisons=comparisons, notes=notes)
