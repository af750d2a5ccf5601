"""Timed runs, traced runs, correctness checks and the metrics they yield.

:func:`run_timed` is the untraced run behind every end-to-end metric;
:func:`run_traced` is the separate run behind the per-layer metrics.
Both return a :class:`Report`; ``run.py`` prints it.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

import repro

from .hooks import (LAYERS, NON_REPRO, OTHER_REPRO, REFERENCE_S,
                    FirstRunClock, LayerProfile, SetupDone, SpeedProbe, Spans)
from .layers import COUNTER_METRICS, layer_counters
from .workloads import Outcome, Workload, replica_seed

__all__ = ["E2E_METRICS", "LAYER_METRICS", "Report", "mid_quantiles",
           "run_for_peak_rss", "run_timed", "run_traced"]

#: end-to-end metric -> unit (``--trace 0``)
E2E_METRICS = {
    "host_req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "resp_p50_s": "s",
    "resp_p99_s": "s",
}

#: per-layer metric -> unit (``--trace 1``)
LAYER_METRICS = {
    **{f"{layer}.self_share": "ratio"
       for layer in (*LAYERS, OTHER_REPRO, NON_REPRO)},
    **COUNTER_METRICS,
    "slo_miss_frac": "ratio",
    "sim.host_ns_per_event": "ns/event",
    "sim.fairshare.submits_per_req": "1/req",
    "cluster.fs.reads_per_req": "1/req",
    "cache.directory.lookups_per_req": "1/req",
    "web.dns.resolves_per_req": "1/req",
    "core.broker.calls_per_req": "1/req",
    "core.broker.host_us_per_call": "us/call",
    "workload.fluid.host_ns_per_req": "ns/req",
    "geo.fs.reads_per_req": "1/req",
    "trace.untraced_host_req_per_s": "req/s",
    "trace.host_req_per_s": "req/s",
    "trace.overhead_x": "x",
    "trace.spans": "count",
}

#: second-half p50 over first-half p50 above which latency is "still
#: climbing" (an overloaded open loop, not a steady state)
BACKLOG_RATIO = 1.5
#: set-up-only probes before every replica and timed re-run, so they
#: spread over the whole run and over the host's slow and fast spells
SETUP_PROBES_PER_RUN = 3
#: fewest set-up probes behind ``setup_s``
MIN_SETUP_PROBES = 20
#: the percentile of the scaled set-up probes that ``setup_s`` reports
SETUP_PERCENTILE = 10
#: fewest timed runs behind ``host_req_per_s``
MIN_TIMED = 3

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
RUN_PY = os.path.join(BENCH_DIR, "run.py")


@dataclass
class Report:
    """Checks, metrics and request counts of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: (check, passed, detail)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: free-form lines printed before the metrics
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


@dataclass
class _Run:
    """One run's result and its host-time stamps: start, first event, end."""

    result: Any
    t0: float
    first: float
    t1: float

    @property
    def run_s(self) -> float:
        return self.t1 - self.first


def _execute(workload: Workload, seed: int, scale: float,
             timed: bool = False) -> _Run:
    """Build inputs and run once; split host time at the first event."""
    gc.collect()
    with FirstRunClock() as clock:
        t0 = time.perf_counter()
        prepared = workload.prepare(seed, scale)
        result = (workload.timed(prepared) if timed
                  else workload.execute(prepared))
        t1 = time.perf_counter()
    return _Run(result, t0, clock.first, t1)


def _probe_setup(workload: Workload, seed: int,
                 scale: float) -> tuple[float, float]:
    """Host time stamps of nothing and of the first event, with the run
    aborted there."""
    gc.collect()
    with FirstRunClock(abort=True) as clock:
        t0 = time.perf_counter()
        try:
            workload.timed(workload.prepare(seed, scale))
        except SetupDone:
            return t0, clock.first
    raise RuntimeError(f"{workload.name}: the run never reached its "
                       "first event")


def run_for_peak_rss(workload: Workload, seed: int, scale: float) -> float:
    """Run replica 0 of ``seed`` once, as a timed run does, in this
    process; return the process's peak resident memory, MiB."""
    workload.timed(workload.prepare(replica_seed(seed, 0), scale))
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_peak_rss(workload: Workload, seed: int, scale: float) -> float:
    """:func:`run_for_peak_rss` in a fresh interpreter, so the figure
    holds the program and its inputs, not this harness's state."""
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload.name,
         "--seed", str(seed), "--scale", repr(scale), "--peak-rss"],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-rss run failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])[
        "peak_rss_mb"])


def _warm_up(workload: Workload, scale: float) -> None:
    """One tiny run so imports and lazy caches settle before timing."""
    _execute(workload, replica_seed(0, 999), scale * 0.02)


def _window(workload: Workload, out: Outcome,
            scale: float) -> tuple[np.ndarray, int, int]:
    """(completed latencies in arrival order, offered, failed) for the
    requests that arrived after the warm-up window (shrunk with
    ``scale`` so the self-test's short runs keep some requests)."""
    warmup = workload.warmup_s * min(1.0, scale)
    measured = out.starts >= warmup
    offered = int(measured.sum())
    failed = int((measured & ~out.ok).sum())
    if warmup <= 0:  # unroutable arrivals have no start time
        offered += out.lost
        failed += out.lost
    return out.latencies[measured & out.ok], offered, failed


def _check_outcome(report: Report, workload: Workload, label: str,
                   out: Outcome, scale: float) -> None:
    for what, (got, want) in out.identities.items():
        report.check(f"{label}: {what}", got == want, f"{got} vs {want}")
    report.check(f"{label}: every request settled", out.unsettled == 0,
                 f"{out.unsettled} unsettled")
    completed, failed = out.counted
    report.check(f"{label}: completed + failed == offered",
                 completed + failed == out.arrivals,
                 f"{completed} + {failed} vs {out.arrivals} by counters")
    lats, _, _ = _window(workload, out, scale)
    half = len(lats) // 2
    if half:
        first, = mid_quantiles(lats[:half], (0.5,))
        second, = mid_quantiles(lats[half:], (0.5,))
        report.check(f"{label}: no growing backlog",
                     second <= BACKLOG_RATIO * first,
                     f"p50 {first:.6g} s -> {second:.6g} s by arrival half")


def mid_quantiles(values: np.ndarray, qs: tuple) -> list[float]:
    """Parzen mid-quantiles of ``values`` at fractions ``qs`` (0..1).

    Linear interpolation of the mid-distribution function, which puts
    each distinct value at the middle of its probability mass.  On
    continuous data this is the usual interpolated percentile; where
    latencies pile up on a few exact values (over half of geo3's
    requests take exactly 138.28075 ms) it still moves with the mass on
    either side, where a plain order statistic would read the same on
    every seed.  Values are rounded to the nanosecond first, so float
    noise in ``end - start`` does not split one latency into many.
    """
    distinct, counts = np.unique(np.round(values, 9), return_counts=True)
    mid = (np.cumsum(counts) - counts / 2.0) / len(values)
    return [float(np.interp(q, mid, distinct)) for q in qs]


def _slo_miss(workload: Workload, lats: np.ndarray, offered: int,
              failed: int) -> tuple[float, int]:
    """(failed-or-late fraction of offered, late count)."""
    late = int((lats > workload.slo_s).sum())
    return (failed + late) / offered, late


def run_timed(workload: Workload, seed: int, seconds: float,
              scale: float = 1.0,
              log: Callable[[str], None] = lambda line: None) -> Report:
    """The untraced run: every end-to-end metric, plus the checks.

    Measures peak memory in a child process first.  Then, under a
    :class:`SpeedProbe`: ``workload.replicas`` replicas for the sim-time
    metrics, and timed re-runs of them (through the timed entry point)
    until ``seconds`` of host time are spent and ``MIN_TIMED`` timed runs
    exist; every re-run must reproduce its replica's digest.  Set-up-only
    probes go before each of them.  Host times are read at the reference
    speed.
    """
    report = Report()
    peak_rss = _child_peak_rss(workload, seed, scale)
    seeds = [replica_seed(seed, i) for i in range(workload.replicas)]
    #: (start, first event) of every set-up probe
    probes: list[tuple[float, float]] = []
    #: (requests, first event, end) of every timed run
    timed: list[tuple[int, float, float]] = []
    outcomes: list[Outcome] = []
    #: host seconds of each replica or re-run, its set-up probes included
    costs: list[float] = []

    def probe_setups(count: int) -> None:
        for _ in range(count):
            probes.append(_probe_setup(
                workload, seeds[len(probes) % len(seeds)], scale))

    with SpeedProbe() as probe:
        _warm_up(workload, scale)
        t_begin = time.perf_counter()
        for i, rs in enumerate(seeds):
            t0 = time.perf_counter()
            probe_setups(SETUP_PROBES_PER_RUN)
            run = _execute(workload, rs, scale)
            costs.append(time.perf_counter() - t0)
            out = workload.outcome(run.result)
            del run.result
            outcomes.append(out)
            _check_outcome(report, workload, f"replica {i}", out, scale)
            log(f"  replica {i} (seed {rs}): {out.offered} requests, "
                f"{out.events} events, digest {out.digest[:16]}")
            if workload.execute_timed is None:
                timed.append((out.offered, run.first, run.t1))
        digests = [out.digest for out in outcomes]
        report.check("replica seeds reach the outcome",
                     len(set(digests)) == len(digests),
                     f"{len(set(digests))} distinct digests of "
                     f"{len(digests)}")
        rerun = 0
        while True:
            spent = time.perf_counter() - t_begin
            estimate = statistics.median(costs[-len(seeds):])
            if len(timed) >= MIN_TIMED and spent + estimate > seconds:
                break
            i = rerun % len(seeds)
            t0 = time.perf_counter()
            probe_setups(SETUP_PROBES_PER_RUN)
            run = _execute(workload, seeds[i], scale, timed=True)
            costs.append(time.perf_counter() - t0)
            report.check(f"re-run {rerun} reproduces replica {i}",
                         workload.digest(run.result) == digests[i])
            del run.result
            timed.append((outcomes[i].offered, run.first, run.t1))
            rerun += 1
        probe_setups(MIN_SETUP_PROBES - len(probes))

    requests = sum(n for n, _, _ in timed)
    raw_rate = requests / sum(t1 - first for _, first, t1 in timed)
    rate = requests / sum(probe.scaled_s(first, t1) for _, first, t1 in timed)
    setup = float(np.percentile([probe.scaled_s(t0, first)
                                 for t0, first in probes], SETUP_PERCENTILE))
    raw_setup = float(np.percentile([first - t0 for t0, first in probes],
                                    SETUP_PERCENTILE))
    speed = REFERENCE_S / float(np.median(np.frombuffer(probe.job)))
    windows = [_window(workload, out, scale) for out in outcomes]
    lats = np.concatenate([w[0] for w in windows])
    offered = sum(w[1] for w in windows)
    failed = sum(w[2] for w in windows)
    p50, p99 = mid_quantiles(lats, (0.50, 0.99))
    slo_miss, late = _slo_miss(workload, lats, offered, failed)
    beyond = int((lats > p99).sum())
    report.attempted = sum(out.offered for out in outcomes)
    report.failed = sum(out.failed for out in outcomes)
    values = {
        "host_req_per_s": rate,
        "setup_s": setup,
        "peak_rss_mb": peak_rss,
        "resp_p50_s": p50,
        "resp_p99_s": p99,
    }
    report.metrics = {k: (v, E2E_METRICS[k]) for k, v in values.items()}
    report.notes += [
        f"host times at the reference speed: {len(probe)} reference jobs, "
        f"host at {speed:.3f} x reference (median); unscaled "
        f"host_req_per_s {raw_rate:.6g}, setup_s {raw_setup:.6g}",
        f"host_req_per_s: requests over host seconds of {len(timed)} timed "
        "runs",
        f"setup_s: {SETUP_PERCENTILE}th percentile of {len(probes)} set-up "
        "probes",
        "peak_rss_mb: replica 0 through the timed entry point, in a fresh "
        "process",
        f"resp_p50_s / resp_p99_s: {len(lats)} completed samples, "
        f"{beyond} beyond p99",
        f"req_fail_frac: {failed} of {offered} offered failed",
        f"slo_miss_frac: {slo_miss:.6g} (limit {workload.slo_s} s sim, "
        f"{failed} failed + {late} late of {offered}; unbounded, see "
        "README)",
        ("warm-up window: arrivals before "
         f"{workload.warmup_s:g} s sim are left out of the sim-time metrics"
         if workload.warmup_s > 0 else
         "warm-up window: none; the run starts with empty caches and "
         "every request counts"),
    ]
    return report


def run_traced(workload: Workload, seed: int, scale: float = 1.0,
               spans_path: Optional[str] = None,
               log: Callable[[str], None] = lambda line: None) -> Report:
    """The traced run: every per-layer metric, for replica 0 of ``seed``.

    Replica 0 runs untraced first (counters, untraced rate, digest), then
    again under the profiler hook and the entry-point wrappers; the two
    digests must agree, which shows the tracing only observes.
    """
    report = Report()
    rs = replica_seed(seed, 0)
    _warm_up(workload, scale)
    plain = _execute(workload, rs, scale)
    out = workload.outcome(plain.result)
    _check_outcome(report, workload, "untraced", out, scale)
    values: dict[str, float] = layer_counters(plain.result, out)
    del plain.result
    values["slo_miss_frac"], _ = _slo_miss(workload,
                                           *_window(workload, out, scale))

    with Spans() as spans, LayerProfile(REPRO_DIR, BENCH_DIR) as profile:
        traced = _execute(workload, rs, scale)
    traced_digest = workload.outcome(traced.result).digest
    del traced.result
    report.check("traced run reproduces the untraced digest",
                 traced_digest == out.digest,
                 f"{traced_digest[:16]} vs {out.digest[:16]}")

    offered = out.offered
    spent, total = profile.self_seconds()
    report.check("layer self times sum to the traced total",
                 abs(sum(spent.values()) - total) <= 1e-6 * max(total, 1.0),
                 f"{sum(spent.values()):.6f} vs {total:.6f} s")
    for layer, secs in spent.items():
        values[f"{layer}.self_share"] = secs / total if total else 0.0
    per_entry, per_family = spans.summary()
    broker = per_entry["core.broker.choose_server"]
    untraced_rate = offered / plain.run_s
    traced_rate = offered / traced.run_s
    values.update({
        "sim.host_ns_per_event": (plain.run_s / out.events * 1e9
                                  if out.events else 0.0),
        "sim.fairshare.submits_per_req":
            per_entry["sim.fairshare.submit"]["calls"] / offered,
        "cluster.fs.reads_per_req": per_family["fs"] / offered,
        "cache.directory.lookups_per_req": per_family["directory"] / offered,
        "web.dns.resolves_per_req": per_family["dns"] / offered,
        "core.broker.calls_per_req": per_family["broker"] / offered,
        "core.broker.host_us_per_call": (broker["total_s"] / broker["calls"]
                                         * 1e6 if broker["calls"] else 0.0),
        "workload.fluid.host_ns_per_req": (
            plain.run_s / offered * 1e9
            if workload.name == "fluid_zipf" else 0.0),
        "geo.fs.reads_per_req": per_entry["geo.fs.read"]["calls"] / offered,
        "trace.untraced_host_req_per_s": untraced_rate,
        "trace.host_req_per_s": traced_rate,
        "trace.overhead_x": untraced_rate / traced_rate,
        "trace.spans": float(len(spans)),
    })
    report.attempted, report.failed = offered, out.failed
    report.metrics = {k: (values[k], unit) for k, unit in LAYER_METRICS.items()}
    if spans_path is not None:
        spans.write(spans_path)
        report.notes.append(f"spans: {len(spans)} written to {spans_path}")
    report.notes.append(
        f"traced replica seed {rs}: {offered} requests, profile total "
        f"{total:.3f} s, tracing overhead x{untraced_rate / traced_rate:.2f}")
    return report
