"""Extension X5 — the self-correcting cost function.

§3.2: "modeling the cost associated with processing a HTTP request
accurately is not easy.  We still need to investigate further the design
of such a function."  We inject a badly mis-specified oracle table (per-
byte CPU underestimated 60×) into the heavy Table 3 workload and compare
three servers:

* **well-specified** — the static table matches reality (the default);
* **mis-specified** — the wrong static table, forever;
* **adaptive** — starts from the same wrong table, learns from served
  requests (:class:`~repro.core.adaptive_oracle.AdaptiveOracle`).

The adaptive server should recover most of the gap.
"""

from __future__ import annotations

from ..core import AdaptiveOracle, Oracle, OracleRule
from ..cluster import meiko_cs2
from ..workload import bimodal_corpus, uniform_burst
from .base import ExperimentReport
from .runner import ScenarioResult, replay
from .tables import ComparisonRow, render_table

__all__ = ["run"]

WRONG_RULES = [OracleRule(pattern="*", ops_per_byte=0.1)]   # truth: ~6


def _cell(oracle, rps: int, duration: float, label: str) -> ScenarioResult:
    """One X5 cell: the Table 3 heavy workload with an injected oracle.

    ``Scenario`` has no oracle hook (it is a per-experiment concern), so
    this builds the cluster directly and replays the workload with the
    same DNS-cached 4-host client layout Table 3 uses.
    """
    from dataclasses import replace as _replace
    from itertools import cycle

    from ..core import SWEBCluster
    from ..web import Client, UCSB_CLIENT

    corpus = bimodal_corpus(150, 6, large_frac=0.5, seed=9)
    workload = uniform_burst(corpus, rps, duration)
    cluster = SWEBCluster(spec=meiko_cs2(6), policy="sweb", seed=1,
                          oracle=oracle, dns_ttl=300.0)
    corpus.install(cluster)
    sim = cluster.sim
    hosts = cycle([Client(cluster,
                          profile=_replace(UCSB_CLIENT, name=f"ucsb#{i}",
                                           domain=f"ucsb#{i}"))
                   for i in range(4)])
    driver = replay(sim, workload,
                    lambda arrival: next(hosts).fetch(arrival.path))
    done = sim.spawn(driver, name="driver")
    sim.run(until=done)
    return ScenarioResult(scenario=f"x5-{label}", cluster=cluster,
                          metrics=cluster.metrics,
                          duration=workload.duration, finished_at=sim.now,
                          offered_rps=workload.offered_rps)


def run(fast: bool = True) -> ExperimentReport:
    duration = 15.0 if fast else 30.0
    rps = 25

    results = {
        "well-specified": _cell(Oracle(), rps, duration, "good"),
        "mis-specified (static)": _cell(Oracle(rules=list(WRONG_RULES)),
                                        rps, duration, "bad"),
        "mis-specified (adaptive)": _cell(
            AdaptiveOracle(rules=list(WRONG_RULES), alpha=0.4,
                           min_observations=3),
            rps, duration, "adaptive"),
    }

    rows = [[label, res.mean_response_time, res.drop_rate * 100.0,
             res.redirection_rate * 100.0]
            for label, res in results.items()]
    table = render_table(
        headers=["oracle", "time (s)", "drop (%)", "redirected (%)"],
        rows=rows,
        title=f"X5 — oracle mis-specification and recovery, {rps} rps "
              f"non-uniform, Meiko-6", floatfmt=".3f")

    good = results["well-specified"].mean_response_time
    bad = results["mis-specified (static)"].mean_response_time
    adaptive = results["mis-specified (adaptive)"].mean_response_time
    recovered = (bad - adaptive) / (bad - good) if bad > good else 1.0
    comparisons = [
        ComparisonRow(
            "mis-specification hurts",
            "cost model quality matters (§3.2)",
            f"good {good:.3f}s vs bad {bad:.3f}s",
            "bad table no faster than good",
            ok=bad >= good * 0.98),
        ComparisonRow(
            "adaptive oracle recovers",
            "(the paper's stated future work)",
            f"adaptive {adaptive:.3f}s, recovering {recovered:.0%} of the gap",
            "adaptive at least as good as static-bad",
            ok=adaptive <= bad * 1.02),
        ComparisonRow(
            "adaptive approaches well-specified",
            "learned rate == true send cost",
            f"{adaptive / good:.2f}x of well-specified",
            "within 25% of the good table",
            ok=adaptive <= 1.25 * good),
    ]
    notes = ("The wrong table underestimates per-byte CPU 60x, so the "
             "broker undervalues big-file load when comparing nodes; the "
             "adaptive oracle re-learns the rate from the first few served "
             "requests per file class.")
    return ExperimentReport(exp_id="X5", title="Adaptive oracle recovery",
                            table=table,
                            data={l: r.mean_response_time
                                  for l, r in results.items()},
                            comparisons=comparisons, notes=notes)
