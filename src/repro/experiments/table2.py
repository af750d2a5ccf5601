"""Table 2 — response time and drop rate vs number of server nodes.

Meiko at 16 rps (both 1 KB and 1.5 MB files) for 1/2/4/6 nodes; NOW at
16 rps (1 KB) and 8 rps (1.5 MB) for 1/2/4 nodes; 30 s bursts.

Shape expectations (all stated in §4.1):

* 1 KB — no drops at any node count, response flat beyond ~2 nodes;
* 1.5 MB on the Meiko — drop rate collapses as nodes are added
  (paper: 37.3 % → 5 % → 3.5 % → 0 %) and response time improves
  substantially (superlinear, thanks to aggregate RAM);
* 1.5 MB on the NOW — the single server effectively times out; adding
  nodes brings the drop rate down.
"""

from __future__ import annotations

from ..cluster import meiko_cs2, sun_now
from .base import ExperimentReport
from .paper_data import TABLE2
from .runner import ScenarioResult, run_scenario
from .table1 import table1_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run", "sweep_nodes"]


def sweep_nodes(base_spec_factory, node_counts, size: float, rps: int,
                duration: float, seed: int = 1,
                client_timeout: float = 120.0) -> dict[int, ScenarioResult]:
    """Run the same Table 1 burst against 1..N-node versions of a
    testbed."""
    return {n: run_scenario(table1_scenario(
                base_spec_factory(n), size, rps, duration, seed=seed,
                client_timeout=client_timeout))
            for n in node_counts}


def run(fast: bool = True) -> ExperimentReport:
    duration = 15.0 if fast else 30.0
    meiko_counts = (1, 2, 4, 6)
    now_counts = (1, 2, 4)

    cells = {
        ("meiko", "1K"): sweep_nodes(meiko_cs2, meiko_counts, 1e3, 16, duration),
        ("meiko", "1.5M"): sweep_nodes(meiko_cs2, meiko_counts, 1.5e6, 16, duration),
        ("now", "1K"): sweep_nodes(sun_now, now_counts, 1e3, 16, duration),
        # NOW clients must be very patient: the shared Ethernet needs
        # ~16 s of drain per offered second of 8 rps x 1.5 MB, and the
        # paper's reported times ("> 120", 94.3 s averages) show theirs
        # were.  Scale the timeout with the offered window.
        ("now", "1.5M"): sweep_nodes(sun_now, now_counts, 1.5e6, 8, duration,
                                     client_timeout=max(240.0,
                                                        18.0 * duration)),
    }

    rows = []
    data: dict[str, dict] = {}
    for (bed, size_label), sweep in cells.items():
        for n, res in sweep.items():
            rows.append([bed, size_label, n,
                         res.mean_response_time, res.drop_rate * 100.0,
                         res.cache_hit_rate() * 100.0])
            data[f"{bed}/{size_label}/{n}"] = {
                "time": res.mean_response_time,
                "drop_rate": res.drop_rate,
                "cache_hit_rate": res.cache_hit_rate(),
            }

    table = render_table(
        headers=["testbed", "file size", "#nodes", "time (s)", "drop (%)",
                 "cache hit (%)"],
        rows=rows,
        title=f"Table 2 — response time & drop rate vs #nodes "
              f"({duration:.0f}s bursts)")

    m15 = cells[("meiko", "1.5M")]
    m1k = cells[("meiko", "1K")]
    n15 = cells[("now", "1.5M")]
    comparisons = [
        ComparisonRow(
            "Meiko 1.5M drop rate falls with nodes",
            "37.3% -> 5% -> 3.5% -> 0%",
            " -> ".join(f"{m15[n].drop_rate:.0%}" for n in meiko_counts),
            "monotone non-increasing, 1-node >> 6-node",
            ok=(m15[1].drop_rate > 0.10 and m15[6].drop_rate <= 0.02
                and m15[1].drop_rate >= m15[6].drop_rate)),
        ComparisonRow(
            "Meiko 1.5M time improves with nodes",
            "substantially better",
            f"{m15[1].mean_response_time:.1f}s -> {m15[6].mean_response_time:.1f}s",
            "6-node much faster than 1-node",
            ok=m15[6].mean_response_time < 0.5 * m15[1].mean_response_time),
        ComparisonRow(
            "1K files never stress multi-node",
            "0% drops everywhere",
            f"1-node {m1k[1].drop_rate:.1%}, 2+ nodes "
            f"{max(m1k[n].drop_rate for n in meiko_counts[1:]):.1%}",
            "0% beyond 1 node, small at 1 node",
            ok=(all(m1k[n].drop_rate == 0.0 for n in meiko_counts[1:])
                and m1k[1].drop_rate < 0.15)),
        ComparisonRow(
            "1K response flat beyond 2 nodes",
            "constant for 2+ nodes",
            f"{m1k[2].mean_response_time:.3f}s vs {m1k[6].mean_response_time:.3f}s",
            "within 2x of each other",
            ok=m1k[6].mean_response_time < 2 * m1k[2].mean_response_time),
        ComparisonRow(
            "NOW 1.5M: single server worst",
            "single timed out; 20.5% @2; 0% @4",
            " -> ".join(f"{n15[n].drop_rate:.0%}" for n in now_counts),
            "drop rate falls with nodes",
            ok=n15[1].drop_rate >= n15[4].drop_rate),
        ComparisonRow(
            "superlinear speedup evidence (aggregate RAM)",
            "multi-node fits working set in memory",
            f"hit rate {m15[1].cache_hit_rate():.0%} @1 node vs "
            f"{m15[6].cache_hit_rate():.0%} @6 nodes",
            "cache hit rate grows with nodes",
            ok=m15[6].cache_hit_rate() > m15[1].cache_hit_rate()),
    ]
    notes = ("Paper drop-rate magnitudes depend on listen-queue depth and "
             "client patience; the monotone collapse with node count is the "
             "reproduced result.")
    return ExperimentReport(exp_id="T2",
                            title="Response time & drop rate vs #nodes (Table 2)",
                            table=table, data=data, comparisons=comparisons,
                            notes=notes)
