"""Figure 3 — the functional modules of a SWEB scheduler.

The figure shows one node's httpd consulting the broker, which consults
the oracle (request characterisation) and loadd (distributed load
information).  We regenerate it by tracing a short run and extracting
the module-interaction sequence for one redirected request, plus the
loadd broadcast fabric running underneath.
"""

from __future__ import annotations

from ..core import SWEBCluster
from ..cluster import meiko_cs2
from ..obs import Tracer
from .base import ExperimentReport
from .tables import ComparisonRow, render_table

__all__ = ["run"]


def run(fast: bool = True) -> ExperimentReport:
    tracer = Tracer(max_requests=0)
    cluster = SWEBCluster(meiko_cs2(3), policy="sweb", seed=1, tracer=tracer)
    # A big file whose home is NOT the DNS-chosen node, plus an idle
    # cluster, guarantees at least one broker consultation.
    cluster.add_file("/maps/big.tif", 1.5e6, home=2)
    proc = cluster.fetch("/maps/big.tif")
    record = cluster.run(until=proc)
    cluster.run(until=cluster.sim.now + 6.0)   # let loadd broadcast twice

    sched = tracer.filter(category="sched")
    loadd = tracer.filter(category="loadd")
    rows = [[f"{rec.time:8.4f}", rec.category, rec.actor, rec.action,
             " ".join(f"{k}={v}" for k, v in sorted(rec.detail.items()))]
            for rec in (sched + loadd)[:20]]
    table = render_table(
        headers=["time", "module", "actor", "event", "detail"],
        rows=rows,
        title="Figure 3 — broker / oracle / loadd interactions (traced)")

    brokers_consulted = {rec.actor for rec in sched}
    daemons_heard = {rec.actor for rec in loadd}
    comparisons = [
        ComparisonRow(
            "broker consulted per request",
            "httpd -> broker -> choice",
            f"{len(sched)} decisions by {sorted(brokers_consulted)}",
            "at least one choose_server",
            ok=len(sched) >= 1),
        ComparisonRow(
            "loadd broadcasts underneath",
            "every 2-3 seconds, every node",
            f"{len(loadd)} broadcasts from {len(daemons_heard)} daemons",
            "every node's daemon heard",
            ok=len(daemons_heard) == 3),
        ComparisonRow(
            "decision uses the load view",
            "broker consults oracle + loadd",
            f"request served by node {record.served_by} "
            f"(home 2, DNS {record.dns_node})",
            "request completed",
            ok=record.ok),
    ]
    notes = ("The 'oracle' consultation is implicit in every choose_server "
             "event: the broker's cost terms come from the oracle's "
             "characterisation table (see repro.core.oracle).")
    return ExperimentReport(exp_id="F3",
                            title="Scheduler functional modules (Figure 3)",
                            table=table,
                            data={"sched_events": len(sched),
                                  "loadd_events": len(loadd)},
                            comparisons=comparisons, notes=notes)
