"""§4.2 skewed test — the fundamental weakness of pure file locality.

"We performed a skewed test … where each client accessed the same file
located on a single server, effectively reducing the parallel system to
a single server.  In this situation, round-robin handily outperforms
file locality, with average response times of 3.7s and 81.4s,
respectively.  This test was performed with six servers, 8 rps, for 45s,
and file size of 1.5MB."

We add SWEB to the comparison: it should track the round-robin outcome
(the hot file is cached everywhere after the first few fetches, so the
cost model sees no reason to pile onto the home node).
"""

from __future__ import annotations

from ..cluster import meiko_cs2
from ..workload import (Scenario, burst_workload, hot_file_sampler,
                        single_hot_file)
from .base import ExperimentReport
from .paper_data import SKEWED_TEST
from .runner import ScenarioResult, run_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run", "run_policy", "skewed_scenario"]

HOT_PATH = "/hot/popular.gif"


def skewed_scenario(policy: str, duration: float = 45.0, rps: int = 8,
                    seed: int = 1) -> Scenario:
    """The skewed cell: every client asks for one 1.5 MB file homed on
    node 0 of the 6-node Meiko."""
    corpus = single_hot_file(SKEWED_TEST["file_size"], home=0, path=HOT_PATH)
    workload = burst_workload(rps, duration, hot_file_sampler(HOT_PATH))
    # Deep listen queues and patient clients: the paper's 81.4 s locality
    # pathology is a *queueing* collapse (every request eventually served,
    # after a huge wait), not a refusal storm.
    return Scenario(name=f"skew-{policy}",
                    spec=meiko_cs2(SKEWED_TEST["servers"]),
                    corpus=corpus, workload=workload, policy=policy,
                    seed=seed, client_timeout=600.0, backlog=1024)


def run_policy(policy: str, duration: float = 45.0, rps: int = 8,
               seed: int = 1) -> ScenarioResult:
    """Run the skewed cell under one policy."""
    return run_scenario(skewed_scenario(policy, duration, rps, seed))


def run(fast: bool = True) -> ExperimentReport:
    duration = 20.0 if fast else SKEWED_TEST["duration"]
    rps = int(SKEWED_TEST["rps"])

    results = {policy: run_policy(policy, duration=duration, rps=rps)
               for policy in ("round-robin", "file-locality", "sweb")}

    rows = [[policy,
             SKEWED_TEST.get(policy).value if policy in ("round-robin",
                                                         "file-locality") else None,
             res.mean_response_time, res.drop_rate * 100.0]
            for policy, res in results.items()]
    table = render_table(
        headers=["policy", "paper (s)", "measured (s)", "drop (%)"],
        rows=rows,
        title=f"Skewed test — one hot 1.5 MB file, 6 servers, {rps} rps")

    rr = results["round-robin"].mean_response_time
    fl = results["file-locality"].mean_response_time
    sw = results["sweb"].mean_response_time
    comparisons = [
        ComparisonRow(
            "round robin handily outperforms locality",
            f"{SKEWED_TEST['round-robin'].value}s vs "
            f"{SKEWED_TEST['file-locality'].value}s (22x)",
            f"{rr:.1f}s vs {fl:.1f}s ({fl / rr:.0f}x)",
            "locality at least 5x worse",
            ok=fl > 5 * rr),
        ComparisonRow(
            "SWEB avoids the locality trap",
            "(not in paper — our extension)",
            f"SWEB {sw:.1f}s",
            "SWEB within 2x of round robin",
            ok=sw < 2 * rr),
    ]
    notes = ("Locality funnels every request to the file's home node, "
             "reducing six servers to one; its NIC and CPU saturate and the "
             "listen queue overflows — the paper's 81.4 s pathology.")
    return ExperimentReport(exp_id="S2", title="Skewed hot-file test (§4.2)",
                            table=table,
                            data={p: r.mean_response_time
                                  for p, r in results.items()},
                            comparisons=comparisons, notes=notes)
