"""Extension X9 — fault injection and graceful degradation.

The paper motivates SWEB with availability: §3.1 rejects the central
dispatcher because it "becomes a single point of failure", and §1 wants
scheduling "adaptive to the dynamic change of system load and
configuration".  X3 covered *graceful* departures; this experiment
covers the ungraceful ones: a node crashes mid-run (in-flight
connections reset, DNS keeps rotating to the corpse), every loadd is
silenced long enough that brokers lose their peer-load picture, and a
disk silently degrades.

We run the same fault plan twice — once paper-faithful (no client
retries, brokers trust whatever load data they have) and once with the
graceful-degradation extensions on (bounded client retry with backoff,
broker stale-load round-robin fallback, suspicion filtering).  The
claim checked: under identical faults, graceful degradation strictly
lowers the drop rate, the broker fallback demonstrably engages, and
client retries demonstrably recover reset/refused connections.
"""

from __future__ import annotations

from ..cluster import meiko_cs2
from ..core import CostParameters
from ..workload import Scenario, bimodal_corpus, uniform_burst
from .base import ExperimentReport
from .runner import ScenarioResult, run_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run", "run_faulted", "DEFAULT_PLAN"]

#: One crash (connections reset, DNS never updated), a cluster-wide
#: loadd blackout longer than ``fallback_staleness`` (forces the
#: stale-load fallback decision at every broker), and a silent 8x disk
#: slowdown.  Node ids assume >= 6 nodes.
DEFAULT_PLAN = ("crash:n2@4-14,"
                "mute:n0@3-15,mute:n1@3-15,mute:n3@3-15,"
                "mute:n4@3-15,mute:n5@3-15,"
                "slowdisk:n1@2-16x8")


def run_faulted(graceful: bool, duration: float = 20.0, rps: int = 12,
                plan: str = DEFAULT_PLAN, seed: int = 1) -> ScenarioResult:
    """One fault-injected run; identical workload either way."""
    n_nodes = 6
    corpus = bimodal_corpus(120, n_nodes, large_frac=0.5, seed=9)
    scenario = Scenario(
        name=f"X9/{'graceful' if graceful else 'faithful'}",
        spec=meiko_cs2(n_nodes),
        corpus=corpus,
        workload=uniform_burst(corpus, rps, duration),
        policy="sweb",
        seed=seed,
        params=CostParameters(graceful_degradation=graceful),
        faults=plan,
    )
    return run_scenario(scenario)


def run(fast: bool = True) -> ExperimentReport:
    duration = 20.0 if fast else 40.0
    rps = 12 if fast else 16
    results = {mode: run_faulted(graceful=(mode == "graceful"),
                                 duration=duration, rps=rps)
               for mode in ("faithful", "graceful")}

    rows = [[mode, r.drop_rate * 100.0, r.completed,
             r.mean_response_time, r.fallback_count, r.retry_count,
             r.reset_count]
            for mode, r in results.items()]
    table = render_table(
        headers=["mode", "drop (%)", "completed", "time (s)",
                 "fallbacks", "retries", "resets"],
        rows=rows,
        title="X9 — crash + loadd blackout + slow disk, "
              "graceful degradation off vs on")

    ng, g = results["faithful"], results["graceful"]
    comparisons = [
        ComparisonRow(
            "graceful degradation lowers the drop rate",
            "availability is the design goal (§3.1)",
            f"faithful {ng.drop_rate:.1%} vs graceful {g.drop_rate:.1%}",
            "strictly lower with degradation on",
            ok=g.drop_rate < ng.drop_rate),
        ComparisonRow(
            "broker falls back when all peer load info is stale",
            "don't trust a load picture older than fallback_staleness",
            f"{g.fallback_count} fallback decisions (faithful: "
            f"{ng.fallback_count})",
            "engages only in graceful mode",
            ok=g.fallback_count > 0 and ng.fallback_count == 0),
        ComparisonRow(
            "client retry-with-backoff recovers failed connections",
            "a refused/reset connection need not be a lost request",
            f"{g.retry_count} retries (faithful: {ng.retry_count})",
            "retries occur only in graceful mode",
            ok=g.retry_count > 0 and ng.retry_count == 0),
        ComparisonRow(
            "the crash actually bites",
            "node_crash resets in-flight connections",
            f"faithful run reset {ng.reset_count} connections",
            "at least one reset observed",
            ok=ng.reset_count > 0),
    ]
    notes = ("Both runs replay the identical arrival sequence against "
             "the identical fault plan; the only difference is "
             "CostParameters.graceful_degradation.  The faithful run "
             "shows what the paper's design loses to an ungraceful "
             "failure; the graceful run shows the recovery machinery "
             "(retry, fallback, suspicion) buying the drop rate down "
             "while preserving the at-most-once redirect rule.")
    return ExperimentReport(exp_id="X9",
                            title="Fault injection and graceful degradation",
                            table=table, data={
                                mode: {
                                    "drop_rate": r.drop_rate,
                                    "completed": r.completed,
                                    "mean_rt": r.mean_response_time,
                                    "fallbacks": r.fallback_count,
                                    "retries": r.retry_count,
                                    "resets": r.reset_count,
                                    "injector_log": (
                                        [rec.format()
                                         for rec in r.injector.log]
                                        if r.injector else []),
                                } for mode, r in results.items()},
                            comparisons=comparisons, notes=notes)
