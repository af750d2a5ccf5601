"""Performance benchmark harness behind ``sweb-repro bench``.

The ROADMAP's north star is a simulator that "runs as fast as the
hardware allows"; §3.3 of the paper bounds the max sustained request
rate, and we can only explore large clusters and high arrival rates if
the discrete-event kernel keeps up.  This module measures the kernel the
same way every time — a fixed set of *phases*, each timed over several
repeats — and writes the result as ``BENCH_kernel.json`` so
``scripts/bench_compare.py`` can fail a change that regresses events/s
by more than the budget (15 % by default).

Phases (see :data:`PHASES`):

* ``timeout_chain``   — raw event throughput: one process, N timeouts;
* ``process_spawn``   — spawn/resume cost: N short-lived processes;
* ``fair_share``      — water-filling reallocation under job churn;
* ``trace_disabled``  — cost of a capped-off :class:`~repro.obs.Tracer`'s
  ``emit``;
* ``end_to_end``      — the full SWEB stack serving a request stream;
* ``coop_broker``     — cache-aware broker decisions against a seeded
  cooperative-cache directory (the repro.cache hot path);
* ``lint_deep``       — the full static-analysis stack (per-file rules
  plus the whole-program call graph, substream audit, and purity proof)
  over ``src/repro``, rated in files/s — keeps ``--deep`` fast enough
  to gate tier-1.

Tier phases (``--scale {S,M,L,XL}``, see :data:`TIERS` and
``docs/SCALING.md``) additionally measure the million-request path:

* ``fluid_stream@T``  — the aggregate client-population model
  (:func:`repro.workload.run_fluid`), rated in sim-req/s;
* ``shard_grid@T``    — a seeds-grid through the sharded runner
  (:func:`repro.experiments.run_grid`) including the snapshot merge;
* ``sched_tournament@T`` — the X11 policy × cluster × popularity grid
  (every fluid decision kernel, homogeneous and heterogeneous), the
  stress test for the per-policy stepper dispatch;
* ``fuzz_smoke@T``    — a seeded ``repro.fuzz`` campaign (generator →
  executor → oracle over whole random deployments), rated in cases/s —
  tracks the cost of the tier-1 fuzz gate;
* ``geo_cdn@T``       — the three-site geo tier end to end (WAN reads,
  placement daemon, geo-affinity DNS; docs/GEO.md), rated in requests/s
  — the multi-cluster analogue of ``end_to_end``.

Per-layer time shares come from ``perfbench/run.py --trace 1``; for a
function table of one phase run ``python -m cProfile -m repro.cli bench
--phase NAME``.

Used by ``sweb-repro bench`` (see ``docs/PERFORMANCE.md``); importable
directly for tests.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Optional

try:  # POSIX only; the bench degrades gracefully without it
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

__all__ = ["PHASES", "SCHEMA", "TIERS", "TIER_PHASES", "parse_scale",
           "run_bench", "run_phase", "main"]

#: Schema tag stamped into every BENCH file (bump on incompatible change).
SCHEMA = "sweb-bench/1"

#: The committed ledger a run without ``-o`` updates.
DEFAULT_OUT = "BENCH_kernel.json"

#: ``--scale`` tier definitions: simulated request volumes for the
#: fluid-stream phase and the sharded seeds-grid phase.  The grid always
#: totals the same request count as the stream so the two rates compare
#: directly (grid = stream + shard/merge overhead).
TIERS: dict[str, dict[str, int]] = {
    "S": {"fluid_requests": 100_000, "grid_cells": 4,
          "grid_requests": 25_000, "tournament_requests": 10_000,
          "fuzz_cases": 10, "geo_requests": 600},
    "M": {"fluid_requests": 400_000, "grid_cells": 4,
          "grid_requests": 100_000, "tournament_requests": 40_000,
          "fuzz_cases": 20, "geo_requests": 1_200},
    "L": {"fluid_requests": 1_000_000, "grid_cells": 4,
          "grid_requests": 250_000, "tournament_requests": 100_000,
          "fuzz_cases": 40, "geo_requests": 2_400},
    "XL": {"fluid_requests": 4_000_000, "grid_cells": 8,
           "grid_requests": 500_000, "tournament_requests": 250_000,
           "fuzz_cases": 80, "geo_requests": 4_800},
}

#: offered rate for the tier phases: ~70 % utilisation of the default
#: 6-node fluid cluster, the regime where broker decisions matter
_TIER_RATE = 7_000.0


# ---------------------------------------------------------------------------
# phase bodies: each returns (work_units, unit_name, extras)
# ---------------------------------------------------------------------------

def _phase_timeout_chain(scale: float) -> tuple[int, str, dict[str, Any]]:
    from .sim import Simulator

    n = max(1, int(50_000 * scale))
    sim = Simulator()

    def ticker():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1.0)

    sim.spawn(ticker())
    sim.run()
    return sim.event_count, "events", {"timeouts": n}


def _phase_process_spawn(scale: float) -> tuple[int, str, dict[str, Any]]:
    from .sim import Simulator

    n = max(1, int(10_000 * scale))
    sim = Simulator()

    def short_lived(i):
        yield sim.timeout(0.001 * (i % 13))
        yield sim.timeout(0.5)

    for i in range(n):
        sim.spawn(short_lived(i))
    sim.run()
    return sim.event_count, "events", {"processes": n}


def _phase_fair_share(scale: float) -> tuple[int, str, dict[str, Any]]:
    from .sim import FairShareServer, Simulator

    n = max(1, int(600 * scale))
    sim = Simulator()
    srv = FairShareServer(sim, rate=100.0)

    def submit(i):
        yield sim.timeout(i * 0.01)
        cap = 5.0 if i % 9 == 0 else None
        job = srv.submit(1.0 + (i % 7), cap=cap)
        yield job

    for i in range(n):
        sim.spawn(submit(i))
    sim.run()
    return sim.event_count, "events", {
        "jobs": srv.jobs_completed,
        "work_done": srv.work_completed,
    }


def _phase_trace_disabled(scale: float) -> tuple[int, str, dict[str, Any]]:
    from .obs import Tracer

    n = max(1, int(200_000 * scale))
    tracer = Tracer(max_records=0)
    emit = tracer.emit
    for i in range(n):
        emit(float(i), "bench", "bench", "noop", i=i)
    return n, "emits", {"records_kept": len(tracer.records)}


def _phase_end_to_end(scale: float) -> tuple[int, str, dict[str, Any]]:
    from .cluster import meiko_cs2
    from .core.sweb import SWEBCluster

    n = max(1, int(300 * scale))
    cluster = SWEBCluster(meiko_cs2(6), policy="sweb", seed=1)
    for i in range(20):
        cluster.add_file(f"/f{i}.html", 2e4, home=i % 6)
    client = cluster.client()
    sim = cluster.sim

    def driver():
        for i in range(n):
            yield sim.timeout(0.05)
            client.fetch(f"/f{i % 20}.html")

    sim.spawn(driver())
    cluster.run(until=sim.now + 0.05 * n + 60.0)
    # Rated in requests/s, not events/s: optimisations that *eliminate*
    # kernel events (batched fan-out, process-free transfer chains) make
    # the same scenario cheaper while lowering event_count — events/s
    # would punish exactly the improvements this phase exists to measure.
    return n, "requests", {
        "completed": cluster.metrics.completed,
        "events": sim.event_count,
    }


def _phase_coop_broker(scale: float) -> tuple[int, str, dict[str, Any]]:
    from .cache import CacheReport
    from .cluster import meiko_cs2
    from .core import CostParameters
    from .core.sweb import SWEBCluster

    n = max(1, int(3_000 * scale))
    cluster = SWEBCluster(
        meiko_cs2(6), policy="sweb", seed=1, start_loadd=False,
        params=CostParameters(coop_cache=True, cache_hot_set=16))
    for i in range(16):
        cluster.add_file(f"/hot{i}.gif", 3e6, home=0)
    # Seed every directory with synthetic peer reports so choose_server
    # exercises the cache-aware t_data path (directory lookup per
    # candidate), not just the plain cost loop.
    for node_id, directory in cluster.directories.items():
        for peer in range(6):
            if peer == node_id:
                continue
            paths = tuple(f"/hot{i}.gif" for i in range(peer, 16, 6))
            directory.update(CacheReport(node=peer, paths=paths,
                                         timestamp=0.0))
    brokers = list(cluster.brokers.values())
    decisions = 0
    for i in range(n):
        broker = brokers[i % len(brokers)]
        broker.choose_server(f"/hot{i % 16}.gif", client_latency=0.01)
        decisions += 1
    return decisions, "decisions", {"nodes": 6, "hot_files": 16}


def _phase_lint_deep(scale: float) -> tuple[int, str, dict[str, Any]]:
    # scale is ignored: the corpus is the live tree, whose size is fixed.
    from .lint import ContextCache, Program, run_deep, run_lint

    cache = ContextCache()
    per_file = run_lint(cache=cache)
    program = Program.build(cache=cache)
    deep = run_deep(cache=cache, program=program)
    return len(cache), "files", {
        "per_file_findings": len(per_file),
        "deep_findings": len(deep),
        "functions": len(program.functions),
        "call_edges": sum(len(t) for t in program.edges.values()),
        "reachable": len(program.sim_reachable),
    }


def _make_fluid_stream(tier: str) -> Callable[[float],
                                              tuple[int, str, dict[str, Any]]]:
    def body(scale: float) -> tuple[int, str, dict[str, Any]]:
        from .workload import FluidScenario, run_fluid

        n = max(1, int(TIERS[tier]["fluid_requests"] * scale))
        scenario = FluidScenario(name=f"bench-{tier}", n_requests=n,
                                 rate=_TIER_RATE, seed=1)
        res = run_fluid(scenario, keep_records=False)
        return n, "sim-req", {
            "tier": tier,
            "events": res.event_count,
            "redirected": res.redirected,
            "fingerprint": res.fingerprint[:16],
        }
    return body


def _make_shard_grid(tier: str) -> Callable[[float],
                                            tuple[int, str, dict[str, Any]]]:
    def body(scale: float) -> tuple[int, str, dict[str, Any]]:
        from .experiments import make_fluid_grid, run_grid
        from .workload import FluidScenario

        cfg = TIERS[tier]
        n = max(1, int(cfg["grid_requests"] * scale))
        base = FluidScenario(name=f"grid-{tier}", n_requests=n,
                             rate=_TIER_RATE, seed=1)
        cells = make_fluid_grid(base, seeds=range(1, cfg["grid_cells"] + 1))
        report = run_grid(cells)
        return report.n_requests, "sim-req", {
            "tier": tier,
            "cells": len(cells),
            "workers": report.workers,
            "grid_fingerprint": report.grid_fingerprint[:16],
        }
    return body


#: Ordered registry: phase name -> body.  ``bench_compare`` diffs by name.
PHASES: dict[str, Callable[[float], tuple[int, str, dict[str, Any]]]] = {
    "timeout_chain": _phase_timeout_chain,
    "process_spawn": _phase_process_spawn,
    "fair_share": _phase_fair_share,
    "trace_disabled": _phase_trace_disabled,
    "end_to_end": _phase_end_to_end,
    "coop_broker": _phase_coop_broker,
    "lint_deep": _phase_lint_deep,
}

def _make_sched_tournament(tier: str) -> Callable[[float],
                                                  tuple[int, str,
                                                        dict[str, Any]]]:
    def body(scale: float) -> tuple[int, str, dict[str, Any]]:
        from .experiments import run_grid
        from .experiments.tournament import make_cells
        from .sched import fluid_policy_names

        n = max(1, int(TIERS[tier]["tournament_requests"] * scale))
        cells = make_cells(n)
        report = run_grid(cells)
        return report.n_requests, "sim-req", {
            "tier": tier,
            "cells": len(cells),
            "policies": len(fluid_policy_names()),
            "workers": report.workers,
            "grid_fingerprint": report.grid_fingerprint[:16],
        }
    return body


def _make_fuzz_smoke(tier: str) -> Callable[[float],
                                            tuple[int, str, dict[str, Any]]]:
    def body(scale: float) -> tuple[int, str, dict[str, Any]]:
        from .fuzz import SMOKE_PROFILE, run_fuzz

        n = max(1, int(TIERS[tier]["fuzz_cases"] * scale))
        report = run_fuzz(root_seed=7, n_cases=n, profile=SMOKE_PROFILE,
                          shrink_failures=False)
        return n, "cases", {
            "tier": tier,
            "failures": len(report.failures),
        }
    return body


def _make_geo_cdn(tier: str) -> Callable[[float],
                                         tuple[int, str, dict[str, Any]]]:
    def body(scale: float) -> tuple[int, str, dict[str, Any]]:
        from .geo import GeoScenario, run_geo

        n = max(1, int(TIERS[tier]["geo_requests"] * scale))
        rps = 40.0
        result = run_geo(GeoScenario(name=f"bench-geo-{tier}", rps=rps,
                                     duration=n / rps, seed=1,
                                     graceful=True))
        return n, "requests", {
            "tier": tier,
            "edge_hit_rate": round(result.edge_hit_rate, 4),
            "wan_reads": result.wan_reads,
            "placements": result.placements,
        }
    return body


#: Tier-tagged phases, run only under ``--scale {S,M,L,XL}``.  The ``@``
#: suffix marks them optional to ``scripts/bench_compare.py``: a tier
#: phase present in the baseline but absent from the new file is noted,
#: not fatal, since plain ``bench`` runs skip the tiers.
TIER_PHASES: dict[str, Callable[[float], tuple[int, str, dict[str, Any]]]] = {}
for _tier in TIERS:
    TIER_PHASES[f"fluid_stream@{_tier}"] = _make_fluid_stream(_tier)
    TIER_PHASES[f"shard_grid@{_tier}"] = _make_shard_grid(_tier)
    TIER_PHASES[f"sched_tournament@{_tier}"] = _make_sched_tournament(_tier)
    TIER_PHASES[f"fuzz_smoke@{_tier}"] = _make_fuzz_smoke(_tier)
    TIER_PHASES[f"geo_cdn@{_tier}"] = _make_geo_cdn(_tier)


def parse_scale(value: Any) -> tuple[float, Optional[str]]:
    """Interpret a ``--scale`` value: a float multiplier or a tier letter.

    Returns ``(multiplier, tier)`` — tier is ``None`` for plain float
    scales, and the multiplier is 1.0 for tier scales.
    """
    if isinstance(value, (int, float)):
        return float(value), None
    text = str(value).strip()
    tier = text.upper()
    if tier in TIERS:
        return 1.0, tier
    try:
        return float(text), None
    except ValueError:
        raise ValueError(
            f"--scale must be a float or one of {'/'.join(TIERS)}, "
            f"got {value!r}") from None


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _phase_body(name: str) -> Callable[[float], tuple[int, str, dict[str, Any]]]:
    """Look up a phase in the base registry, then the tier registry."""
    body = PHASES.get(name) or TIER_PHASES.get(name)
    if body is None:
        raise KeyError(name)
    return body


def run_phase(name: str, repeats: int = 3, scale: float = 1.0) -> dict[str, Any]:
    """Time one phase ``repeats`` times; report the best (least-noise) run."""
    body = _phase_body(name)
    best_wall = None
    units = 0
    unit = "units"
    extras: dict[str, Any] = {}
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        units, unit, extras = body(scale)
        wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall = wall
    result = {
        "units": units,
        "unit": unit,
        "wall_s": round(best_wall, 6),
        "per_s": round(units / best_wall, 1) if best_wall > 0 else 0.0,
    }
    result.update(extras)
    # Tier phases report kernel events alongside sim-requests; derive
    # the events/s rate the BENCH record promises per tier.
    if "events" in extras and best_wall > 0:
        result["events_per_s"] = round(extras["events"] / best_wall, 1)
    return result


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown)."""
    if _resource is None:  # pragma: no cover - non-POSIX
        return None
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


def run_bench(repeats: int = 3, scale: float = 1.0,
              phases: Optional[list[str]] = None, stream=None,
              tier: Optional[str] = None) -> dict[str, Any]:
    """Run the benchmark suite; return the BENCH document as a dict.

    ``tier`` (one of :data:`TIERS`) appends that tier's ``fluid_stream@T``,
    ``shard_grid@T`` and ``sched_tournament@T`` phases to the run and
    stamps the tier into the document.
    """
    stream = stream if stream is not None else sys.stdout
    if tier is not None and tier not in TIERS:
        raise KeyError(f"unknown tier {tier!r}; choose from {sorted(TIERS)}")
    if phases:
        names = list(phases)
    else:
        names = list(PHASES)
        if tier is not None:
            names += [f"fluid_stream@{tier}", f"shard_grid@{tier}",
                      f"sched_tournament@{tier}", f"fuzz_smoke@{tier}",
                      f"geo_cdn@{tier}"]
    known = set(PHASES) | set(TIER_PHASES)
    unknown = [p for p in names if p not in known]
    if unknown:
        raise KeyError(f"unknown phase(s): {', '.join(unknown)}")
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "python": sys.version.split()[0],
        "repeats": repeats,
        "scale": scale,
        "phases": {},
    }
    if tier is not None:
        doc["tier"] = tier
    total_wall = 0.0
    for name in names:
        result = run_phase(name, repeats=repeats, scale=scale)
        doc["phases"][name] = result
        total_wall += result["wall_s"]
        print(f"  {name:<16} {result['per_s']:>12,.0f} {result['unit']}/s  "
              f"({result['wall_s'] * 1e3:,.1f} ms best of {repeats})",
              file=stream)
    headline = doc["phases"].get("timeout_chain", {}).get("per_s", 0.0)
    doc["totals"] = {
        "wall_s": round(total_wall, 6),
        "events_per_s": headline,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return doc


def _missing_phases(path: str, doc: dict[str, Any]) -> list[str]:
    """Phases recorded in the ledger at ``path`` that ``doc`` lacks."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        recorded = json.load(fh).get("phases", {})
    return sorted(set(recorded) - set(doc["phases"]))


def main(out: Optional[str] = None, repeats: int = 3,
         scale: Any = 1.0, phases: Optional[list[str]] = None) -> int:
    """Entry point used by ``sweb-repro bench``.

    ``scale`` accepts a float multiplier or a tier letter (S/M/L/XL).
    ``out=None`` updates :data:`DEFAULT_OUT`, but only when the run
    measured every phase already recorded there, so a partial run never
    clobbers the committed ledger; an explicit path is always written,
    and ``""`` writes nothing.
    """
    multiplier, tier = parse_scale(scale)
    label = tier if tier is not None else f"{multiplier:g}"
    print(f"sweb-repro bench (repeats={repeats}, scale={label})")
    doc = run_bench(repeats=repeats, scale=multiplier, phases=phases,
                    tier=tier)
    totals = doc["totals"]
    rss = totals["peak_rss_kb"]
    if totals["events_per_s"]:
        head = f"kernel: {totals['events_per_s']:,.0f} events/s"
    else:
        head = "kernel: n/a (timeout_chain phase not run)"
    line = f"{head}; total wall {totals['wall_s']:.2f}s"
    if rss is not None:
        line += f"; peak RSS {rss / 1024:.1f} MiB"
    print(line)
    if out is None:
        missing = _missing_phases(DEFAULT_OUT, doc)
        if missing:
            print(f"not writing {DEFAULT_OUT}: this run lacks recorded "
                  f"phase(s) {', '.join(missing)}; pass -o PATH to write "
                  f"elsewhere", file=sys.stderr)
            return 0
        out = DEFAULT_OUT
    if out:
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    # `python -m repro.bench ARGS` is `sweb-repro bench ARGS`: same parser,
    # same options and defaults.
    from .cli import main as _cli_main
    sys.exit(_cli_main(["bench", *sys.argv[1:]]))
