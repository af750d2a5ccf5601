"""Figure 2 — the computing and storage architecture of SWEB.

The figure shows the two-stage assignment: the DNS rotation spreads
incoming requests over the nodes, and each node's scheduler then
re-routes them.  We regenerate it as a matrix counting, for a loaded
run, how many requests DNS sent to each node versus how many each node
actually served — the off-diagonal mass *is* the scheduler at work.
"""

from __future__ import annotations

from .base import ExperimentReport
from .runner import run_scenario
from .table3 import table3_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run"]


def run(fast: bool = True) -> ExperimentReport:
    duration = 15.0 if fast else 30.0
    scenario = table3_scenario(25, duration=duration)
    n_nodes = scenario.spec.num_nodes
    result = run_scenario(scenario)

    matrix = [[0] * n_nodes for _ in range(n_nodes)]
    for rec in result.metrics.records:
        if rec.ok and rec.dns_node is not None and rec.served_by is not None:
            matrix[rec.dns_node][rec.served_by] += 1

    rows = [[f"DNS->node{i}"] + matrix[i] + [sum(matrix[i])]
            for i in range(n_nodes)]
    served_totals = [sum(matrix[i][j] for i in range(n_nodes))
                     for j in range(n_nodes)]
    rows.append(["served total"] + served_totals + [sum(served_totals)])
    table = render_table(
        headers=["assignment"] + [f"srv{j}" for j in range(n_nodes)] + ["sum"],
        rows=rows,
        title="Figure 2 — DNS first-stage vs scheduler second-stage "
              "assignment (completed requests)", floatfmt=".0f")

    dns_totals = [sum(matrix[i]) for i in range(n_nodes)]
    moved = sum(matrix[i][j] for i in range(n_nodes)
                for j in range(n_nodes) if i != j)
    total = sum(dns_totals)

    def imbalance(counts):
        live = [c for c in counts]
        mean = sum(live) / len(live) if live else 0.0
        return max(live) / mean if mean else float("inf")

    comparisons = [
        ComparisonRow(
            "DNS assignment is coarse",
            "rotation without load knowledge",
            f"max/mean DNS load = {imbalance(dns_totals):.2f}",
            "visible imbalance (> 1.05)",
            ok=imbalance(dns_totals) > 1.05),
        ComparisonRow(
            "scheduler re-balances",
            "second-stage assignment",
            f"max/mean served = {imbalance(served_totals):.2f} "
            f"({moved}/{total} moved)",
            "served spread tighter than DNS spread",
            ok=imbalance(served_totals) <= imbalance(dns_totals) + 1e-9),
    ]
    notes = ("Rows: where the DNS rotation sent requests; columns: which "
             "node fulfilled them.  Off-diagonal counts are SWEB "
             "redirections correcting the DNS stage.")
    return ExperimentReport(exp_id="F2",
                            title="Two-stage assignment architecture (Figure 2)",
                            table=table,
                            data={"matrix": matrix, "moved": moved},
                            comparisons=comparisons, notes=notes)
