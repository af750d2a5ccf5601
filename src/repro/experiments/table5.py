"""Table 5 — cost distribution in the average response time.

"Table 5 shows the case of a 1.5MB file fetched over a fairly heavily
loaded system. … For a client fetching a 1.5M file on the Meiko, of the
5.4 sec. total time, well over 90% is spent doing data transfer.  The
results indicate that the overall overhead introduced by SWEB analysis
and scheduling algorithm is insignificant."

We run the same 16 rps × 1.5 MB burst on the 6-node Meiko under SWEB and
report the mean per-phase costs measured at the clients.
"""

from __future__ import annotations

from ..cluster import meiko_cs2
from .base import ExperimentReport
from .paper_data import TABLE5
from .runner import run_scenario
from .table1 import table1_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run"]

PHASE_LABELS = {
    "preprocessing": "Preprocessing",
    "analysis": "Req. Analysis (SWEB)",
    "redirection": "Redirection (SWEB)",
    "data_transfer": "Data Transfer",
    "network": "Network Costs",
}


def run(fast: bool = True) -> ExperimentReport:
    duration = 15.0 if fast else 30.0
    result = run_scenario(table1_scenario(meiko_cs2(6), 1.5e6, 16, duration))

    phases = result.phase_means()
    total = result.mean_response_time
    rows = []
    for key, label in PHASE_LABELS.items():
        measured = phases.get(key, 0.0)
        paper = TABLE5.get(key)
        rows.append([label, paper.value if paper else None, measured,
                     measured / total * 100.0 if total else 0.0])
    rows.append(["Total Client Time", TABLE5["total"].value, total, 100.0])

    table = render_table(
        headers=["activity", "paper (s)", "measured (s)", "% of total"],
        rows=rows,
        title="Table 5 — cost distribution, 1.5 MB fetch, loaded Meiko",
        floatfmt=".4f")

    transfer_share = phases.get("data_transfer", 0.0) / total if total else 0.0
    sweb_overhead = (phases.get("analysis", 0.0)
                     + phases.get("redirection", 0.0))
    comparisons = [
        ComparisonRow(
            "data transfer dominates",
            "well over 90% of total",
            f"{transfer_share:.0%}",
            "more than 75% of total time",
            ok=transfer_share > 0.75),
        ComparisonRow(
            "SWEB-added overhead insignificant",
            "1-4 ms analysis + 4 ms redirect",
            f"{sweb_overhead * 1e3:.1f} ms mean",
            "under 5% of total",
            ok=sweb_overhead < 0.05 * total),
        ComparisonRow(
            "preprocessing is a small slice",
            f"{TABLE5['preprocessing'].value * 1e3:.0f} ms (70 ms CPU; "
            "queueing inflates it under load)",
            f"{phases.get('preprocessing', 0.0) * 1e3:.0f} ms",
            "10-1000 ms and well below transfer",
            ok=(0.01 < phases.get("preprocessing", 0.0) < 1.0
                and phases.get("preprocessing", 0.0)
                < 0.3 * phases.get("data_transfer", 1.0))),
        ComparisonRow(
            "total client time ~ seconds",
            f"{TABLE5['total'].value:.1f} s",
            f"{total:.1f} s",
            "within ~3x of 5.4 s",
            ok=1.5 < total < 16.0),
    ]
    notes = ("'Data Transfer' here covers the disk/cache/NFS read plus "
             "pushing bytes through the TCP stack to the client; 'Network "
             "Costs' covers DNS, connects and WAN latency — the same split "
             "as the paper's instrumentation.")
    return ExperimentReport(exp_id="T5",
                            title="Cost distribution (Table 5)",
                            table=table,
                            data={"phases": phases, "total": total},
                            comparisons=comparisons, notes=notes)
