"""Fixed-seed determinism regression tests.

The kernel performance pass (``docs/PERFORMANCE.md``) rewrote several hot
paths — the run loop, the fair-share water-filling allocator, trace
gating, and the loadd broadcast fan-out — under the contract that every
change is *behaviour-preserving*: a fixed-seed scenario must produce
bit-identical metrics before and after.  This module pins that contract:
it runs two small scenarios (one per fabric type) and compares an exact,
``repr``-level fingerprint of every request record, counter and trace
line against a golden fixture generated before the optimisation pass.

If a change legitimately alters simulation behaviour (new feature, model
fix), regenerate the golden file::

    PYTHONPATH=src python tests/test_determinism.py --regenerate

and explain the behaviour change in the commit message.  A *performance*
change must never need to do this.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.cluster import meiko_cs2, sun_now
from repro.core.costmodel import CostParameters
from repro.experiments.cache_coop import hot_cold_corpus
from repro.experiments.runner import run_scenario
from repro.geo import GeoScenario, run_geo
from repro.obs import Tracer
from repro.sim import RandomStreams
from repro.workload import (
    Scenario,
    burst_workload,
    poisson_workload,
    uniform_corpus,
    uniform_sampler,
    zipf_sampler,
)

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "determinism_fingerprint.json"


def _scenarios():
    """Fixed-seed scenarios covering both fabrics, both hot paths, and
    the cooperative-cache machinery (directory, replication daemon,
    replica and peer-cache read paths)."""
    meiko_corpus = uniform_corpus(24, 4e4, 6)
    meiko = Scenario(
        name="det-meiko",
        spec=meiko_cs2(6),
        corpus=meiko_corpus,
        workload=burst_workload(
            20, 8.0, uniform_sampler(meiko_corpus, RandomStreams(seed=7))),
        policy="sweb",
        seed=3,
        tracer=Tracer(max_requests=0),
    )
    now_corpus = uniform_corpus(12, 8e4, 4)
    now = Scenario(
        name="det-now",
        spec=sun_now(4),
        corpus=now_corpus,
        workload=poisson_workload(
            10.0, 6.0, uniform_sampler(now_corpus, RandomStreams(seed=11)),
            RandomStreams(seed=13)),
        policy="sweb",
        seed=5,
        params=CostParameters(),
        tracer=Tracer(max_requests=0),
    )
    coop_corpus = hot_cold_corpus(4)
    coop = Scenario(
        name="det-coop",
        spec=meiko_cs2(4),
        corpus=coop_corpus,
        workload=burst_workload(
            6, 20.0, zipf_sampler(coop_corpus, RandomStreams(seed=17),
                                  alpha=1.0, hot_set=16, tail_weight=0.25)),
        policy="sweb",
        seed=9,
        params=CostParameters(coop_cache=True, replicate=True,
                              cache_hot_set=16, replication_period=1.0,
                              replication_skew=1.0,
                              replication_max_per_cycle=8),
        tracer=Tracer(max_requests=0),
    )
    return [meiko, now, coop]


def _record_line(rec) -> str:
    phases = " ".join(f"{k}={v!r}" for k, v in sorted(rec.phases.items()))
    return (f"{rec.req_id} {rec.path} start={rec.start!r} end={rec.end!r} "
            f"status={rec.status} ok={rec.ok} dropped={rec.dropped} "
            f"reason={rec.drop_reason} dns={rec.dns_node} "
            f"served={rec.served_by} redirected={rec.redirected} "
            f"retries={rec.retries} [{phases}]")


def _geo_entry() -> dict:
    """Repr-level digest of a fixed-seed three-site geo scenario: every
    population's exact response times plus the WAN/placement counters."""
    result = run_geo(GeoScenario(
        name="det-geo", n_files=24, hot_files=6, file_bytes=6e4,
        rps=18.0, duration=6.0, seed=21, graceful=True,
        edge_budget_bytes=4e6))
    populations = {}
    for site, pop in sorted(result.populations.items()):
        populations[site] = {
            "offered": pop.offered, "completed": pop.completed,
            "dropped": pop.dropped, "lost": pop.lost,
            "spilled": pop.spilled,
            "response_times": [repr(t) for t in pop.response_times],
        }
    return {
        "populations": populations,
        "edge_hit_rate": repr(result.edge_hit_rate),
        "wan_reads": result.wan_reads,
        "wan_bytes": repr(result.wan_bytes),
        "placements": result.placements,
        "spills": result.spills,
        "partition_spills": result.partition_spills,
        "unroutable": result.unroutable,
        "finished_at": repr(result.finished_at),
    }


def fingerprint() -> dict:
    """Exact (repr-level) digest of the fixed-seed scenarios."""
    out = {}
    for scenario in _scenarios():
        result = run_scenario(scenario)
        metrics = result.metrics
        trace_text = scenario.tracer.render()
        out[scenario.name] = {
            "records": [_record_line(r) for r in metrics.records],
            "counters": {k: v for k, v in
                         sorted(metrics.counters.as_dict().items())},
            "served_by": {str(k): v for k, v in
                          sorted(metrics.served_by_histogram().items())},
            "finished_at": repr(result.finished_at),
            "trace_records": len(scenario.tracer.records),
            "trace_sha256": hashlib.sha256(
                trace_text.encode()).hexdigest(),
        }
    out["det-geo"] = _geo_entry()
    return out


def test_fixed_seed_scenarios_match_golden_fingerprint():
    golden = json.loads(GOLDEN.read_text())
    current = fingerprint()
    assert current.keys() == golden.keys()
    for name in golden:
        for key in golden[name]:
            assert current[name][key] == golden[name][key], (
                f"{name}.{key} drifted from the golden fingerprint — a "
                f"supposedly behaviour-preserving change altered simulation "
                f"results (see docs/PERFORMANCE.md)")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(fingerprint(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
