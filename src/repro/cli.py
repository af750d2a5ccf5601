"""Command-line interface: ``sweb-repro``.

Subcommands:

* ``list`` — show every reproducible table/figure;
* ``run T3 [--full]`` — regenerate one artifact and print it;
* ``all [--full]`` — regenerate everything (EXPERIMENTS.md source);
* ``serve`` — run an ad-hoc scenario from flags (testbed, policy, rps...);
* ``bench`` — measure kernel/stack performance, write ``BENCH_kernel.json``
  (see ``docs/PERFORMANCE.md``);
* ``trace`` — run a seeded scenario with per-request tracing on and emit
  a Chrome ``trace_event`` JSON plus a text flamegraph
  (see ``docs/TRACING.md``);
* ``fuzz`` — run the scenario fuzzer (seeded random configurations
  checked against cross-cutting invariants; failures are shrunk to
  minimal replayable artifacts — see ``docs/FUZZING.md``).
"""

from __future__ import annotations

import argparse
import sys
import time

__all__ = ["main", "build_parser"]


def _nonneg_int(text: str, minimum: int = 0) -> int:
    """argparse type: a non-negative integer (``--trace-requests``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer."""
    return _nonneg_int(text, minimum=1)


def build_parser() -> argparse.ArgumentParser:
    from .cluster import TESTBEDS
    from .sched import policy_names

    parser = argparse.ArgumentParser(
        prog="sweb-repro",
        description="SWEB (IPPS'96) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible artifacts")

    run = sub.add_parser("run", help="regenerate one table/figure")
    run.add_argument("experiment", help="id, e.g. T1..T5, F1..F3, S1..S3, X1..X9")
    run.add_argument("--full", action="store_true",
                     help="paper-scale durations (slower)")

    allp = sub.add_parser("all", help="regenerate every artifact")
    allp.add_argument("--full", action="store_true")

    serve = sub.add_parser("serve", help="run an ad-hoc scenario")
    serve.add_argument("--testbed", choices=[*TESTBEDS, "geo3"],
                       default="meiko",
                       help="cluster preset; hetmeiko/hetnow are the "
                            "heterogeneous variants (docs/SCHEDULING.md); "
                            "geo3 is the three-site CDN topology and "
                            "implies --geo (docs/GEO.md)")
    serve.add_argument("--geo", action="store_true",
                       help="multi-site mode: run the geo3 topology "
                            "(origin + two WAN-linked edges) with "
                            "geo-affinity DNS and the placement daemon "
                            "(docs/GEO.md); --nodes is ignored")
    serve.add_argument("--wan-latency", type=float, metavar="SECONDS",
                       default=None,
                       help="geo mode: origin<->west one-way WAN latency; "
                            "the east link keeps the geo3 ratio "
                            "(default 0.030)")
    serve.add_argument("--geo-budget", type=float, metavar="MB",
                       default=16.0,
                       help="geo mode: per-edge replica RAM budget in MB "
                            "(0 disables cross-site placement)")
    serve.add_argument("--partition-site", metavar="SITE", default=None,
                       help="geo mode: cut this site's POP off for the "
                            "middle half of the run (with --graceful its "
                            "population spills to the next-nearest site)")
    serve.add_argument("--nodes", type=_positive_int, default=6)
    serve.add_argument("--scheduler", "--policy", dest="policy",
                       choices=list(policy_names()), default="sweb",
                       help="scheduling policy — the zoo is documented in "
                            "docs/SCHEDULING.md (--policy is an alias)")
    serve.add_argument("--rps", type=_positive_int, default=16)
    serve.add_argument("--duration", type=float, default=30.0)
    serve.add_argument("--file-size", type=float, default=1.5e6)
    serve.add_argument("--files", type=_positive_int, default=120)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--faults", metavar="SPEC",
                       help="fault plan, e.g. 'crash:n2@30,partition:10-20' "
                            "(see docs/FAULTS.md for the grammar)")
    serve.add_argument("--graceful", action="store_true",
                       help="enable graceful degradation (client retries, "
                            "stale-load fallback, suspicion filtering)")
    serve.add_argument("--coop-cache", action="store_true",
                       help="cooperative caching: loadd piggybacks each "
                            "node's hot cached-file set and the broker "
                            "prices RAM-resident candidates at memory "
                            "bandwidth (docs/CACHING.md)")
    serve.add_argument("--replicate", action="store_true",
                       help="proactively replicate Zipf-hot files to "
                            "underloaded peers (implies --coop-cache)")
    serve.add_argument("--zipf", type=float, metavar="ALPHA", default=None,
                       help="use a Zipf(ALPHA) popularity distribution "
                            "instead of uniform sampling")
    serve.add_argument("--trace-requests", type=_nonneg_int, metavar="N",
                       default=None,
                       help="trace the first N requests (0 = trace all); "
                            "off by default — tracing is observational and "
                            "never changes results (docs/TRACING.md)")
    serve.add_argument("--trace-out", metavar="PATH", default=None,
                       help="Chrome trace_event JSON output path "
                            "(default trace.json; requires "
                            "--trace-requests)")

    bench = sub.add_parser(
        "bench", help="benchmark the simulation kernel and the full stack")
    bench.add_argument("-o", "--out", default=None,
                       help="output JSON path ('' to skip writing); "
                            "default BENCH_kernel.json, written only when "
                            "the run covers every phase already in it")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timed repeats per phase (best run is kept)")
    bench.add_argument("--scale", default="1.0", metavar="FACTOR|TIER",
                       help="float factor on every phase's workload size, "
                            "or a tier letter S/M/L/XL that also runs the "
                            "million-request fluid_stream@T and "
                            "shard_grid@T phases (docs/SCALING.md)")
    bench.add_argument("--phase", action="append", dest="phases",
                       metavar="NAME",
                       help="run only this phase (repeatable); "
                            "default: all phases")

    replay = sub.add_parser(
        "replay", help="replay a Common Log Format access log")
    replay.add_argument("logfile", help="path to an access_log in CLF")
    replay.add_argument("--config", help="JSON config file (see config-template)")
    replay.add_argument("--time-scale", type=float, default=1.0,
                        help="compress (<1) or stretch (>1) arrival times")
    replay.add_argument("--default-size", type=float, default=8e3,
                        help="size for paths absent from the log's bytes column")

    sub.add_parser("config-template",
                   help="print a complete JSON configuration file")

    lint = sub.add_parser(
        "lint", help="run the sweb-lint static analyzer "
                     "(see docs/LINTING.md)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: src/ and scripts/)")
    lint.add_argument("--types", action="store_true",
                      help="also run the optional mypy pass (strict on "
                           "repro.sim/core/obs/sched/lint; skipped when "
                           "mypy is not installed)")
    lint.add_argument("--deep", action="store_true",
                      help="also run the whole-program analyses: call-graph "
                           "sim-reachability, the RNG substream audit and "
                           "observation-purity (docs/LINTING.md)")
    lint.add_argument("--baseline", metavar="PATH", default=None,
                      help="deep-finding baseline file (default: "
                           ".sweb-lint-baseline.json at the repo root)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    trace = sub.add_parser(
        "trace", help="run a seeded scenario with per-request tracing "
                      "and export Chrome trace JSON (docs/TRACING.md)")
    trace.add_argument("experiment", nargs="?", default="X10",
                       help="what to trace: X10 (Zipf hot set with "
                            "cooperative cache + replication, the default) "
                            "or another paper cell (T1, T3, T4, SKEWED)")
    trace.add_argument("-o", "--out", default="trace.json",
                       help="Chrome trace_event JSON output path")
    trace.add_argument("--requests", type=_positive_int, metavar="N",
                       default=None,
                       help="trace only the first N requests "
                            "(default: all)")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--duration", type=float, default=30.0,
                       help="workload window in simulated seconds")
    trace.add_argument("--flame", action="store_true",
                       help="also print the text flamegraph rollup")

    fuzz = sub.add_parser(
        "fuzz", help="run the scenario fuzzer: random end-to-end configs "
                     "checked against cross-cutting invariants "
                     "(docs/FUZZING.md)")
    fuzz.add_argument("--smoke", action="store_true",
                      help="the fixed tier-1 campaign (seed 7, 20 cases, "
                           "smoke profile) regardless of other flags")
    fuzz.add_argument("--seed", type=int, default=7,
                      help="root seed; every case derives from it "
                           "deterministically")
    fuzz.add_argument("--cases", type=_positive_int, default=20,
                      metavar="N", help="number of cases to generate")
    fuzz.add_argument("--profile", choices=["smoke", "full"],
                      default="smoke",
                      help="case-size profile (full draws bigger "
                           "clusters and longer workloads)")
    fuzz.add_argument("--replay", metavar="PATH", default=None,
                      help="re-run one saved case artifact instead of a "
                           "campaign")
    fuzz.add_argument("-o", "--out", default="fuzz-case.json",
                      help="where to write the shrunk artifact of the "
                           "first failing case ('' to skip writing)")

    report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md (all artifacts)")
    report.add_argument("-o", "--output", default="EXPERIMENTS.md")
    report.add_argument("--full", action="store_true",
                        help="paper-scale durations (slower)")
    report.add_argument("--only", nargs="*", metavar="ID",
                        help="restrict to specific experiment ids")
    return parser


def _cmd_list() -> int:
    from .experiments import ALL_EXPERIMENTS
    for exp_id, module in ALL_EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{exp_id:>3}  {doc}")
    return 0


def _cmd_run(exp_id: str, full: bool) -> int:
    from .experiments import run_experiment
    start = time.time()
    report = run_experiment(exp_id, fast=not full)
    print(report.render())
    print(f"\n[{report.exp_id} finished in {time.time() - start:.1f}s; "
          f"shape holds: {report.shape_holds}]")
    return 0 if report.shape_holds else 1

def _cmd_all(full: bool) -> int:
    from .experiments import ALL_EXPERIMENTS, run_experiment
    failures = []
    for exp_id in ALL_EXPERIMENTS:
        start = time.time()
        report = run_experiment(exp_id, fast=not full)
        print(report.render())
        print(f"\n[{exp_id} in {time.time() - start:.1f}s; "
              f"shape holds: {report.shape_holds}]\n")
        if not report.shape_holds:
            failures.append(exp_id)
    if failures:
        print(f"shape checks FAILED for: {', '.join(failures)}")
        return 1
    print("all shape checks hold")
    return 0


def _cmd_serve_geo(args: argparse.Namespace) -> int:
    """The multi-site branch of ``serve`` (docs/GEO.md)."""
    from .geo import GeoScenario, geo3, run_geo

    if args.faults:
        print("--faults is the single-cluster fault grammar; in geo mode "
              "use --partition-site (docs/GEO.md)", file=sys.stderr)
        return 2
    if args.trace_requests is not None or args.trace_out is not None:
        print("request tracing is not wired through geo mode yet",
              file=sys.stderr)
        return 2
    scale = (args.wan_latency / 30e-3) if args.wan_latency is not None else 1.0
    if scale < 0:
        print("--wan-latency must be >= 0", file=sys.stderr)
        return 2
    spec = geo3(west_latency=30e-3 * scale, east_latency=80e-3 * scale)
    if (args.partition_site is not None
            and args.partition_site not in spec.site_names):
        print(f"unknown --partition-site {args.partition_site!r}; "
              f"choose from {', '.join(spec.site_names)}", file=sys.stderr)
        return 2
    try:
        scenario = GeoScenario(
            name="cli-geo", spec=spec,
            n_files=args.files, file_bytes=args.file_size,
            alpha=args.zipf if args.zipf is not None else 1.1,
            rps=args.rps, duration=args.duration, seed=args.seed,
            graceful=args.graceful,
            edge_budget_bytes=args.geo_budget * 1e6,
            partition_site=args.partition_site,
            partition_window=(args.duration * 0.25, args.duration * 0.75))
    except ValueError as exc:
        print(f"bad geo scenario: {exc}", file=sys.stderr)
        return 2
    result = run_geo(scenario)
    print(result.summary_line())
    for site in spec.site_names:
        pop = result.population(site)
        print(f"  {site}: offered {pop.offered} completed {pop.completed} "
              f"dropped {pop.dropped} lost {pop.lost} "
              f"spilled {pop.spilled} p95 {pop.p95:.3f}s")
    print(f"edges: hit rate {result.edge_hit_rate:.1%}, "
          f"wan reads {result.wan_reads}, "
          f"wan bytes {result.wan_bytes / 1e6:.1f} MB, "
          f"placements {result.placements}")
    print(f"dns: load spills {result.spills}, partition spills "
          f"{result.partition_spills}, unroutable {result.unroutable}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .cluster import TESTBEDS
    from .core.costmodel import CostParameters
    from .experiments.runner import run_scenario
    from .faults import FaultPlan, FaultSpecError
    from .sim import RandomStreams
    from .workload import (Scenario, burst_workload, uniform_burst,
                           uniform_corpus, zipf_sampler)

    if args.geo or args.testbed == "geo3":
        return _cmd_serve_geo(args)
    if args.wan_latency is not None or args.partition_site is not None:
        print("--wan-latency/--partition-site require --geo "
              "(or --testbed geo3)", file=sys.stderr)
        return 2
    if args.trace_out is not None and args.trace_requests is None:
        print("--trace-out requires --trace-requests", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_requests is not None:
        from .obs import Tracer
        # 0 means "no cap": trace every request of the run.  Spans only:
        # the event log is not exported.
        tracer = Tracer(max_requests=args.trace_requests or None,
                        max_records=0)
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.parse(args.faults)
            plan.validate(args.nodes)
        except FaultSpecError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2
    spec = TESTBEDS[args.testbed](args.nodes)
    corpus = uniform_corpus(args.files, args.file_size, args.nodes)
    if args.zipf is not None:
        workload = burst_workload(args.rps, args.duration, zipf_sampler(
            corpus, RandomStreams(seed=42), alpha=args.zipf))
    else:
        workload = uniform_burst(corpus, args.rps, args.duration)
    coop = args.coop_cache or args.replicate
    scenario = Scenario(name="cli", spec=spec, corpus=corpus,
                        workload=workload, policy=args.policy,
                        seed=args.seed,
                        params=CostParameters(
                            graceful_degradation=args.graceful,
                            coop_cache=coop,
                            replicate=args.replicate),
                        faults=plan, tracer=tracer)
    result = run_scenario(scenario)
    print(result.summary_line())
    summary = result.response_summary
    print(f"response: mean {summary.mean:.3f}s p50 {summary.p50:.3f}s "
          f"p90 {summary.p90:.3f}s p99 {summary.p99:.3f}s")
    print(f"redirected: {result.redirection_rate:.1%}, "
          f"remote reads: {result.remote_read_fraction():.1%}")
    # Two different caches are in play; label each unambiguously.
    caches = [node.cache for node in result.cluster.nodes]
    line = (f"page cache (RAM): {result.cache_hit_rate():.1%} hit rate "
            f"({sum(c.hits for c in caches)} hits / "
            f"{sum(c.misses for c in caches)} misses, "
            f"{sum(c.evictions for c in caches)} evictions)")
    if result.replications:
        line += f", {result.replications} hot-file replications"
    print(line)
    print(f"dns cache (client TTL): {result.dns_cache_hit_rate():.1%} "
          f"hit rate")
    print("cpu shares: " + ", ".join(
        f"{k} {v:.2%}" for k, v in sorted(result.cpu_shares().items())))
    if result.injector is not None:
        mode = "graceful" if args.graceful else "paper-faithful"
        print(f"\nfault injection ({mode} mode):")
        print(result.injector.report())
        print(f"degradation: fallbacks {result.fallback_count}, "
              f"retries {result.retry_count}, "
              f"connections reset {result.reset_count}")
    if tracer is not None:
        from .obs import flame_rollup, render_chrome_trace
        out = args.trace_out if args.trace_out is not None else "trace.json"
        with open(out, "w") as fh:
            fh.write(render_chrome_trace(tracer.traces()))
        print(f"\ntraced {len(tracer)} requests -> {out}")
        print(flame_rollup(tracer.traces()))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .cluster import meiko_cs2, sun_now
    from .experiments.cache_coop import coop_scenario
    from .experiments.runner import run_scenario
    from .experiments.skewed import skewed_scenario
    from .experiments.table1 import table1_scenario
    from .experiments.table3 import table3_scenario
    from .experiments.table4 import table4_scenario
    from .obs import Tracer, flame_rollup, render_chrome_trace

    duration, seed = args.duration, args.seed
    cells = {
        "T1": lambda: table1_scenario(meiko_cs2(6), 1.5e6, 16, duration,
                                      seed=seed),
        "T3": lambda: table3_scenario(25, duration=duration, seed=seed),
        "T4": lambda: table4_scenario(sun_now(4), 2, duration=duration,
                                      seed=seed),
        "SKEWED": lambda: skewed_scenario("round-robin", duration,
                                          seed=seed),
        # The X10 shape (docs/CACHING.md), with the cooperative cache
        # directory and hot-file replication on: the richest traces
        # (replica reads, peer-cache hops, redirections).
        "X10": lambda: coop_scenario("dir+repl", duration, seed),
    }
    cell = cells.get(args.experiment.upper())
    if cell is None:
        print(f"unknown trace experiment {args.experiment!r}; "
              f"choose {', '.join(sorted(cells))}", file=sys.stderr)
        return 2
    tracer = Tracer(max_requests=args.requests, max_records=0)
    scenario = cell()
    scenario.tracer = tracer
    result = run_scenario(scenario)
    traces = tracer.traces()
    with open(args.out, "w") as fh:
        fh.write(render_chrome_trace(traces))
    # Reconciliation check: every completed, traced request's stage sums
    # must be consistent with its terminal latency.
    checked = failed = 0
    for rec in result.metrics.records:
        trace = tracer.get(rec.req_id)
        if trace is None or not rec.ok or rec.response_time is None:
            continue
        checked += 1
        if not trace.reconciles(rec.response_time) or trace.problems():
            failed += 1
    print(result.summary_line())
    print(f"traced {len(traces)} requests -> {args.out}")
    print(f"span sums reconcile with latency: {checked - failed}/{checked}")
    if args.flame:
        print()
        print(flame_rollup(traces))
    return 0 if failed == 0 else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .config import load_config
    from .experiments.runner import replay
    from .web.client import Client
    from .workload import DEFAULT_PROFILES
    from .workload.logs import parse_clf, workload_from_clf

    entries = parse_clf(Path(args.logfile).read_text())
    if not entries:
        print(f"no parseable CLF entries in {args.logfile}")
        return 1
    workload = workload_from_clf(entries, time_scale=args.time_scale)
    config = load_config(args.config) if args.config else load_config({})
    cluster = config.build()
    # Place every referenced path; sizes come from the log when present.
    sizes: dict[str, float] = {}
    for entry in entries:
        if entry.nbytes > 0:
            sizes[entry.path] = max(sizes.get(entry.path, 0.0),
                                    float(entry.nbytes))
    n = len(cluster.nodes)
    for i, path in enumerate(sorted({e.path for e in entries})):
        if not cluster.cgi.is_cgi(path):
            cluster.add_file(path, sizes.get(path, args.default_size),
                             home=i % n)
    client = Client(cluster, profile=DEFAULT_PROFILES["ucsb"])
    sim = cluster.sim
    driver = replay(sim, workload, lambda arrival: client.fetch(arrival.path))
    sim.run(until=sim.spawn(driver, name="replay"))
    metrics = cluster.metrics
    print(f"replayed {metrics.total} requests over "
          f"{workload.duration:.1f}s (x{args.time_scale:g} time scale)")
    summary = metrics.response_summary()
    print(f"completed {metrics.completed}, dropped {metrics.dropped} "
          f"({metrics.drop_rate:.1%}); response mean {summary.mean:.3f}s "
          f"p90 {summary.p90:.3f}s")
    return 0


def _cmd_config_template() -> int:
    from .cluster import meiko_cs2
    from .config import SWEBConfig, dump_config
    from .core import CostParameters, Oracle

    config = SWEBConfig(spec=meiko_cs2(), params=CostParameters(),
                        oracle=Oracle())
    print(dump_config(config))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .fuzz import (
        case_artifact,
        config_from_artifact,
        profile_by_name,
        replay_case,
        run_fuzz,
    )

    if args.replay is not None:
        with open(args.replay) as handle:
            config = config_from_artifact(json.load(handle))
        report = replay_case(config)
        print(report.summary_line())
        for violation in report.violations:
            print(f"  {violation}")
        return 0 if report.ok else 1

    seed = 7 if args.smoke else args.seed
    n_cases = 20 if args.smoke else args.cases
    profile = profile_by_name("smoke" if args.smoke else args.profile)
    started = time.perf_counter()
    campaign = run_fuzz(root_seed=seed, n_cases=n_cases, profile=profile)
    for line in campaign.summary_lines():
        print(line)
    print(f"wall time: {time.perf_counter() - started:.1f}s")
    if campaign.ok:
        return 0
    first = campaign.failures[0]
    for violation in first.violations:
        print(f"  {violation}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(case_artifact(first), handle, indent=2)
            handle.write("\n")
        print(f"wrote minimized case to {args.out} "
              f"(replay: sweb-repro fuzz --replay {args.out})")
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.full)
    if args.command == "all":
        return _cmd_all(args.full)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "bench":
        from .bench import main as bench_main, parse_scale
        try:
            parse_scale(args.scale)
        except ValueError as exc:
            print(f"sweb-repro bench: {exc}", file=sys.stderr)
            return 2
        return bench_main(out=args.out, repeats=args.repeats,
                          scale=args.scale, phases=args.phases)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "config-template":
        return _cmd_config_template()
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "lint":
        from .lint.runner import run_cli
        return run_cli(paths=args.paths, types=args.types,
                       list_rules=args.list_rules, deep=args.deep,
                       baseline=args.baseline)
    if args.command == "report":
        from .experiments.report import generate_report

        ids = [i.upper() for i in args.only] if args.only else None
        _text, all_hold = generate_report(fast=not args.full,
                                          output=args.output,
                                          experiment_ids=ids)
        print(f"wrote {args.output}; all shape checks hold: {all_hold}")
        return 0 if all_hold else 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
