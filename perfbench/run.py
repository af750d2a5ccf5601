"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zipf_coop --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` runs untraced and prints the end-to-end metrics;
``--trace 1`` runs the traced replica and prints the per-layer metrics
(and writes its spans under ``perfbench/out/`` unless ``--spans`` names
another file).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import repro
    from it; exit non-zero if the checkout has no program to benchmark."""
    skip = {ROOT, SRC, os.path.dirname(os.path.abspath(__file__))}
    sys.path[:] = [ROOT, SRC] + [p for p in sys.path
                                 if os.path.abspath(p or ".") not in skip]
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/repro")
    import repro

    here = os.path.join(os.path.abspath(SRC), "")
    if not os.path.abspath(repro.__file__).startswith(here):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds of timed runs (untraced run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="span file of the traced run (default "
                        "perfbench/out/spans-<workload>-s<seed>.csv.gz)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-count multiplier (self-test only)")
    parser.add_argument("--peak-rss", action="store_true",
                        help="only run replica 0 once and print this "
                        "process's peak RSS (the untraced run's child)")
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.harness import run_for_peak_rss, run_timed, run_traced
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    if args.seed < 0 or args.scale <= 0:
        parser.error("--seed must be >= 0 and --scale > 0")

    if args.peak_rss:
        peak = run_for_peak_rss(workload, args.seed, args.scale)
        print(json.dumps({"peak_rss_mb": peak}), flush=True)
        return 0

    def log(line: str) -> None:
        print(line, flush=True)

    mode = "traced" if args.trace else "untraced"
    log(f"perfbench {workload.name} seed {args.seed} ({mode}, "
        f"{workload.replicas} replicas, scale {args.scale:g})")
    if args.trace:
        spans = args.spans or os.path.join(
            ROOT, "perfbench", "out",
            f"spans-{workload.name}-s{args.seed}.csv.gz")
        report = run_traced(workload, args.seed, scale=args.scale,
                            spans_path=spans, log=log)
    else:
        report = run_timed(workload, args.seed, args.seconds,
                           scale=args.scale, log=log)

    for note in report.notes:
        log(f"  {note}")
    for name, (value, unit) in report.metrics.items():
        log(f"  {name:<34} {value:>16.6g} {unit}")
    failures = [c for c in report.checks if not c[1]]
    log(f"checks: {len(report.checks) - len(failures)} of "
        f"{len(report.checks)} passed")
    for name, _, detail in failures:
        log(f"  FAILED {name}: {detail}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
