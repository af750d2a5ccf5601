#!/usr/bin/env python3
"""Close the loop with a real webmaster's workflow: access-log replay.

1. Run a burst against SWEB and write the resulting ``access_log`` in
   Common Log Format (the format NCSA httpd — SWEB's code base —
   introduced).
2. Parse that log back, as if it came from a production server.
3. Replay it, time-compressed 2x, against a *differently configured*
   cluster (fewer nodes, round-robin policy) to answer the 1996-vintage
   capacity question: "could half the hardware have carried yesterday's
   traffic?"

Run:  python examples/trace_replay.py
"""

from repro import SWEBCluster, meiko_cs2
from repro.experiments.runner import run_scenario
from repro.sim import RandomStreams
from repro.workload import (
    Scenario,
    bimodal_corpus,
    burst_workload,
    parse_clf,
    uniform_sampler,
    workload_from_clf,
    write_clf,
)


def main() -> None:
    # --- 1. the "production" run -------------------------------------
    corpus = bimodal_corpus(100, 6, large_frac=0.3, seed=4)
    workload = burst_workload(8, 20.0,
                              uniform_sampler(corpus, RandomStreams(4)))
    production = run_scenario(Scenario(name="production", spec=meiko_cs2(6),
                                       corpus=corpus, workload=workload,
                                       policy="sweb", seed=4))
    log_text = write_clf(production.metrics.records)
    print("production run: "
          f"{production.metrics.total} requests, "
          f"drop {production.drop_rate:.1%}, "
          f"mean {production.mean_response_time:.3f}s")
    print(f"access_log: {len(log_text.splitlines())} CLF lines, e.g.")
    for line in log_text.splitlines()[:3]:
        print("   " + line)

    # --- 2. parse it back ------------------------------------------------
    entries = parse_clf(log_text, strict=True)
    ok = sum(1 for e in entries if e.ok)
    print(f"\nparsed {len(entries)} entries ({ok} with status 200)")

    # --- 3. replay on half the hardware, 2x faster -------------------------
    replay_wl = workload_from_clf(entries, time_scale=0.5)
    replay_corpus = bimodal_corpus(100, 3, large_frac=0.3, seed=4)
    replay = run_scenario(Scenario(name="replay-3nodes",
                                   spec=meiko_cs2(3), corpus=replay_corpus,
                                   workload=replay_wl,
                                   policy="round-robin", seed=5))
    print(f"\nreplay on 3 nodes at 2x speed ({replay_wl.offered_rps:.1f} rps "
          f"offered):")
    print(f"  drop {replay.drop_rate:.1%}, "
          f"mean {replay.mean_response_time:.3f}s "
          f"(production was {production.mean_response_time:.3f}s on 6 nodes)")
    verdict = ("would have coped" if replay.drop_rate < 0.02
               else "would NOT have coped")
    print(f"  -> half the hardware {verdict} with twice the load.")


if __name__ == "__main__":
    main()
