"""Extension X3 — nodes leaving and joining the resource pool under load.

§1: workstations "can be used for other computing needs, and can leave
and join the system resource pool at any time. Thus scheduling
techniques which are adaptive to the dynamic change of system load and
configuration are desirable.  The DNS in a round-robin fashion cannot
predict those changes."

We take a node out mid-run (DNS keeps rotating to it — administrators
are slower than loadd) and bring it back.  Round-robin keeps sending a
share of requests into the dead node; SWEB only loses the requests that
land there before loadd's staleness timeout... but since the dead node
refuses connections outright, what SWEB actually buys is *post-redirect*
safety: survivors stop *redirecting into* the dead node once it goes
stale, and the rejoin is absorbed automatically.
"""

from __future__ import annotations

from ..core import SWEBCluster
from ..cluster import meiko_cs2
from ..web import Client
from ..workload import bimodal_corpus, uniform_burst
from .base import ExperimentReport
from .runner import replay
from .tables import ComparisonRow, render_table

__all__ = ["run", "run_churn"]


def run_churn(policy: str, duration: float = 30.0, rps: int = 12,
              leave_at: float = 5.0, rejoin_at: float = 20.0,
              victim: int = 3, seed: int = 1) -> dict:
    """One churn run; returns the headline metrics."""
    n_nodes = 6
    cluster = SWEBCluster(meiko_cs2(n_nodes), policy=policy, seed=seed)
    corpus = bimodal_corpus(120, n_nodes, large_frac=0.5, seed=9)
    corpus.install(cluster)
    sim = cluster.sim
    workload = uniform_burst(corpus, rps, duration)
    client = Client(cluster, timeout=120.0)

    def churner():
        yield sim.timeout(leave_at)
        cluster.node_leave(victim)           # DNS is NOT updated
        yield sim.timeout(rejoin_at - leave_at)
        cluster.node_join(victim, update_dns=False)

    sim.spawn(churner(), name="churner")
    driver = replay(sim, workload, lambda arrival: client.fetch(arrival.path))
    done = sim.spawn(driver, name="driver")
    sim.run(until=done)

    metrics = cluster.metrics
    served_by_victim_after_rejoin = sum(
        1 for rec in metrics.records
        if rec.ok and rec.served_by == victim and rec.start > rejoin_at)
    redirected_into_victim_while_down = sum(
        1 for rec in metrics.records
        if rec.redirected and rec.dropped
        and leave_at < rec.start < rejoin_at)
    return {
        "drop_rate": metrics.drop_rate,
        "dropped": metrics.dropped,
        "total": metrics.total,
        "mean_rt": metrics.mean_response_time(),
        "victim_serves_after_rejoin": served_by_victim_after_rejoin,
        "redirected_then_dropped": redirected_into_victim_while_down,
    }


def run(fast: bool = True) -> ExperimentReport:
    duration = 18.0 if fast else 30.0
    rejoin_at = 12.0 if fast else 20.0
    results = {policy: run_churn(policy, duration=duration,
                                 rejoin_at=rejoin_at)
               for policy in ("round-robin", "sweb")}

    rows = [[policy, r["drop_rate"] * 100.0, r["mean_rt"],
             r["victim_serves_after_rejoin"], r["redirected_then_dropped"]]
            for policy, r in results.items()]
    table = render_table(
        headers=["policy", "drop (%)", "time (s)",
                 "victim serves after rejoin", "redirected-into-dead drops"],
        rows=rows,
        title="X3 — node leave/join under load (DNS never updated)")

    rr, sw = results["round-robin"], results["sweb"]
    comparisons = [
        ComparisonRow(
            "churn causes drops under both",
            "DNS cannot predict membership changes",
            f"RR {rr['drop_rate']:.0%} vs SWEB {sw['drop_rate']:.0%}",
            "both positive, SWEB <= RR",
            ok=sw["drop_rate"] <= rr["drop_rate"] + 1e-9),
        ComparisonRow(
            "SWEB never redirects into the dead node",
            "loadd marks silent nodes unavailable",
            f"{sw['redirected_then_dropped']} redirected-then-dropped",
            "zero after staleness timeout",
            ok=sw["redirected_then_dropped"] == 0),
        ComparisonRow(
            "rejoin is absorbed automatically",
            "loadd notices joins",
            f"victim served {sw['victim_serves_after_rejoin']} requests "
            f"after rejoining",
            "victim serves again",
            ok=sw["victim_serves_after_rejoin"] > 0),
    ]
    notes = ("Drops here are connection refusals at the departed node — "
             "unavoidable while DNS still rotates to it; the scheduler's "
             "job is to stop *sending more work* its way, which loadd's "
             "staleness rule accomplishes.")
    return ExperimentReport(exp_id="X3", title="Membership churn under load",
                            table=table, data=results,
                            comparisons=comparisons, notes=notes)
