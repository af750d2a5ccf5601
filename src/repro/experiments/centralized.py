"""Extension X7 — the centralized scheduler §3.1 rejected, quantified.

"One [approach] is to have a centralized scheduler running on one
processor such that all HTTP requests go through this processor. … We
did not take this approach mainly because … the single central
distributor becomes a single point of failure, making the entire system
more vulnerable."  (The OCR of the paper loses the sentence's first
reason; the dispatcher's own processing cost is the obvious candidate,
and the measurement below bears it out.)

Two measurements:

* **throughput** — the central dispatcher must accept, fork, parse and
  redirect *every* request, so its CPU caps the whole cluster well below
  the distributed design;
* **fault tolerance** — kill one node under load: distributed SWEB loses
  only the requests DNS-routed to the dead node, while the centralized
  design loses everything when the dispatcher dies.
"""

from __future__ import annotations

from ..cluster import meiko_cs2
from ..core import SWEBCluster
from ..web import Client
from ..workload import Scenario, uniform_burst, uniform_corpus
from .base import ExperimentReport
from .runner import replay, run_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run"]


def _throughput_cell(dispatcher, rps: int, duration: float):
    corpus = uniform_corpus(120, 1e5, 6)
    workload = uniform_burst(corpus, rps, duration)
    scenario = Scenario(name=f"x7-{dispatcher}-{rps}", spec=meiko_cs2(6),
                        corpus=corpus, workload=workload, policy="sweb",
                        seed=1, dispatcher=dispatcher)
    return run_scenario(scenario)


def _spof_run(dispatcher, duration: float = 12.0, rps: int = 8,
              kill_at: float = 4.0):
    """Kill node 0 mid-run; return the drop rate."""
    cluster = SWEBCluster(meiko_cs2(6), policy="sweb", seed=1,
                          dispatcher=dispatcher)
    corpus = uniform_corpus(60, 1e5, 6)
    corpus.install(cluster)
    sim = cluster.sim
    workload = uniform_burst(corpus, rps, duration)
    client = Client(cluster, timeout=60.0)

    def killer():
        yield sim.timeout(kill_at)
        cluster.node_leave(0)           # the dispatcher, in centralized mode

    sim.spawn(killer(), name="killer")
    driver = replay(sim, workload, lambda arrival: client.fetch(arrival.path))
    sim.run(until=sim.spawn(driver, name="driver"))
    metrics = cluster.metrics
    after = [r for r in metrics.records if r.start >= kill_at]
    dropped_after = sum(1 for r in after if r.dropped)
    return (metrics.drop_rate,
            dropped_after / len(after) if after else 0.0)


def run(fast: bool = True) -> ExperimentReport:
    duration = 10.0 if fast else 30.0
    rps_levels = (10, 30, 50)

    rows = []
    data: dict = {"throughput": {}}
    for rps in rps_levels:
        dist = _throughput_cell(None, rps, duration)
        cent = _throughput_cell(0, rps, duration)
        data["throughput"][rps] = {
            "distributed": (dist.mean_response_time, dist.drop_rate),
            "centralized": (cent.mean_response_time, cent.drop_rate),
        }
        rows.append([rps, dist.mean_response_time, dist.drop_rate * 100,
                     cent.mean_response_time, cent.drop_rate * 100])
    table1 = render_table(
        headers=["rps", "distributed (s)", "drop (%)",
                 "centralized (s)", "drop (%)"],
        rows=rows,
        title="X7a — distributed vs centralized scheduler, 100 KB files, "
              "Meiko-6", floatfmt=".3f")

    _total_d, after_d = _spof_run(None)
    _total_c, after_c = _spof_run(0)
    data["spof"] = {"distributed_after": after_d, "centralized_after": after_c}
    table2 = render_table(
        headers=["design", "drop rate after node 0 dies"],
        rows=[["distributed", after_d * 100], ["centralized", after_c * 100]],
        title="X7b — single point of failure: node 0 killed mid-run",
        floatfmt=".1f")

    heavy = max(rps_levels)
    dist_heavy = data["throughput"][heavy]["distributed"]
    cent_heavy = data["throughput"][heavy]["centralized"]
    comparisons = [
        ComparisonRow(
            "dispatcher becomes the bottleneck",
            "every request funnels through one CPU",
            f"@{heavy} rps: centralized {cent_heavy[0]:.2f}s/"
            f"{cent_heavy[1]:.0%} drops vs distributed {dist_heavy[0]:.2f}s/"
            f"{dist_heavy[1]:.0%}",
            "centralized worse at high load",
            ok=(cent_heavy[1] > dist_heavy[1]
                or cent_heavy[0] > 1.5 * dist_heavy[0])),
        ComparisonRow(
            "single point of failure",
            "'the entire system more vulnerable' (§3.1)",
            f"after the kill: centralized drops {after_c:.0%}, "
            f"distributed {after_d:.0%}",
            "centralized loses (nearly) everything; distributed ~1/6",
            ok=after_c > 0.9 and after_d < 0.4),
    ]
    notes = ("Centralized mode routes every request through node 0's "
             "httpd+broker (accept, fork, parse, redirect) before any other "
             "node can serve it — the design the paper rejected in one "
             "sentence, measured.")
    return ExperimentReport(exp_id="X7",
                            title="Centralized vs distributed scheduler",
                            table=table1 + "\n\n" + table2, data=data,
                            comparisons=comparisons, notes=notes)
