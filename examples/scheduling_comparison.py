#!/usr/bin/env python3
"""Compare every scheduling policy on the paper's hardest workload.

Reruns the Table 3 configuration (non-uniform sizes, DNS-cached client
hosts, rising load) across all five policies — the paper's three plus
the single-faceted cpu-only baseline and random placement — and prints
the response-time matrix with the winner per load level.

Run:  python examples/scheduling_comparison.py
"""

from repro.core.policies import POLICY_NAMES
from repro.cluster import meiko_cs2
from repro.experiments.runner import run_scenario
from repro.experiments.tables import render_table
from repro.sim import RandomStreams
from repro.workload import Scenario, bimodal_corpus, burst_workload, uniform_sampler


def main() -> None:
    rps_levels = (10, 20, 25, 30)
    duration = 20.0

    results = {}
    for rps in rps_levels:
        for policy in POLICY_NAMES:
            corpus = bimodal_corpus(150, 6, large_frac=0.5, seed=9)
            sampler = uniform_sampler(corpus, RandomStreams(seed=42))
            workload = burst_workload(rps, duration, sampler)
            scenario = Scenario(name=f"cmp-{policy}-{rps}",
                                spec=meiko_cs2(6), corpus=corpus,
                                workload=workload, policy=policy, seed=1,
                                dns_ttl=300.0, hosts_per_profile=4)
            results[(rps, policy)] = run_scenario(scenario)

    rows = []
    for rps in rps_levels:
        times = {p: results[(rps, p)].mean_response_time
                 for p in POLICY_NAMES}
        winner = min(times, key=times.get)
        rows.append([rps] + [times[p] for p in POLICY_NAMES] + [winner])
    print(render_table(
        headers=["rps"] + list(POLICY_NAMES) + ["winner"],
        rows=rows,
        title="Mean response time (s) by policy — non-uniform sizes, "
              "6-node Meiko, DNS-cached clients",
        floatfmt=".3f"))

    print()
    heavy = max(rps_levels)
    sweb = results[(heavy, "sweb")]
    rr = results[(heavy, "round-robin")]
    print(f"At {heavy} rps, SWEB is "
          f"{1 - sweb.mean_response_time / rr.mean_response_time:.0%} faster "
          f"than round-robin while redirecting only "
          f"{sweb.redirection_rate:.0%} of requests "
          f"(drop rates: SWEB {sweb.drop_rate:.1%}, RR {rr.drop_rate:.1%}).")
    print("The paper's §4.2 claim was a 15-60% advantage at rps >= 20.")


if __name__ == "__main__":
    main()
