"""Figure 1 — a simple HTTP transaction.

The figure is a sequence diagram: client C resolves the server name via
its local DNS, opens a TCP connection, sends request r, receives
response f.  We regenerate it as an event trace of one real request
through the simulator and render the sequence.
"""

from __future__ import annotations

from ..core import SWEBCluster
from ..cluster import meiko_cs2
from ..obs import Tracer
from ..web import AuthoritativeDNS, Client, LocalResolver, RUTGERS_CLIENT
from .base import ExperimentReport
from .tables import ComparisonRow, render_table

__all__ = ["run", "transaction_trace"]


def transaction_trace(path: str = "/index.html", size: float = 8e3,
                      seed: int = 1) -> tuple[Tracer, object]:
    """One request through the *full* Figure 1 chain — client, local DNS,
    authoritative DNS on the destination side, then HTTP — all traced."""
    tracer = Tracer(max_requests=0)
    cluster = SWEBCluster(meiko_cs2(2), policy="sweb", seed=seed,
                          tracer=tracer)
    cluster.add_file(path, size, home=0)
    authoritative = AuthoritativeDNS(cluster.sim,
                                     [n.id for n in cluster.nodes], ttl=30.0)
    resolver = LocalResolver(cluster.sim, authoritative,
                             wan=RUTGERS_CLIENT.wan,
                             domain=RUTGERS_CLIENT.domain, tracer=tracer)
    client = Client(cluster, profile=RUTGERS_CLIENT, resolver=resolver)
    proc = client.fetch(path)
    record = cluster.run(until=proc)
    return tracer, record


def run(fast: bool = True) -> ExperimentReport:
    tracer, record = transaction_trace()
    events = [rec for rec in tracer.records
              if rec.category in ("dns", "http")]
    rows = [[f"{rec.time * 1e3:9.3f} ms", rec.category, rec.actor, rec.action,
             " ".join(f"{k}={v}" for k, v in sorted(rec.detail.items()))]
            for rec in events]
    table = render_table(
        headers=["time", "layer", "actor", "event", "detail"],
        rows=rows,
        title="Figure 1 — the HTTP transaction sequence (traced, "
              "east-coast client)")

    actions = [rec.action for rec in events]
    comparisons = [
        ComparisonRow(
            "two-level DNS resolution",
            "client -> local DNS -> destination DNS",
            " -> ".join(a for a in actions
                        if a in ("query_authoritative",
                                 "authoritative_answer", "cache_hit")),
            "local resolver consulted the destination side",
            ok=("query_authoritative" in actions
                and "authoritative_answer" in actions)),
        ComparisonRow(
            "sequence order",
            "DNS -> connect/request -> response",
            " -> ".join(actions),
            "resolution precedes completion",
            ok=("authoritative_answer" in actions and "complete" in actions
                and actions.index("authoritative_answer")
                < actions.index("complete"))),
        ComparisonRow(
            "request completed",
            "200 OK",
            f"status={record.status}",
            "response code 200",
            ok=record.status == 200),
    ]
    notes = ("The Rutgers client's local resolver did not know the SWEB "
             "name, queried the authoritative server at the destination "
             "side (one coast-to-coast round trip), then the browser "
             "connected and received the full response — §2's transaction, "
             "end to end.")
    return ExperimentReport(exp_id="F1", title="HTTP transaction (Figure 1)",
                            table=table,
                            data={"actions": actions,
                                  "response_time": record.response_time},
                            comparisons=comparisons, notes=notes)
