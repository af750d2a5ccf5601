"""Extension X8 — burst dynamics: why short-period max rps > sustained.

§4.1: "The requests coming in a short period can be queued and processed
gradually.  But the requests continuously generated in a long period
cannot be queued without actively processing them since there are new
requests coming after each second."

We drive the 6-node Meiko at a rate *between* its sustained and
short-burst maxima for 1.5 MB files, once for a short window and once
sustained, sampling the total backlog every second.  The short run's
queue drains after the burst ends; the sustained run's queue grows
without bound until drops begin — the mechanism behind Table 1's two
columns, made visible.
"""

from __future__ import annotations

from ..cluster import meiko_cs2
from ..core import SWEBCluster
from ..sim import Monitor, ascii_sparkline
from ..web import Client
from ..workload import uniform_burst, uniform_corpus
from .base import ExperimentReport
from .runner import replay
from .tables import ComparisonRow, render_table

__all__ = ["run", "queue_trajectory"]


def queue_trajectory(rps: int, duration: float, seed: int = 1,
                     drain: float = 40.0):
    """Run a burst and sample the cluster-wide backlog once per second."""
    cluster = SWEBCluster(meiko_cs2(6), policy="sweb", seed=seed)
    corpus = uniform_corpus(120, 1.5e6, 6)
    corpus.install(cluster)
    sim = cluster.sim
    monitor = Monitor(sim, period=1.0)
    monitor.probe("backlog", lambda: sum(
        s.connections_active for s in cluster.servers.values()))
    monitor.start()
    workload = uniform_burst(corpus, rps, duration)
    client = Client(cluster, timeout=120.0)

    driver = replay(sim, workload, lambda arrival: client.fetch(arrival.path))
    sim.run(until=sim.spawn(driver, name="driver"))
    _times, backlog = monitor.series("backlog")
    return backlog, cluster.metrics


def run(fast: bool = True) -> ExperimentReport:
    # 20 rps sits between the sustained max (~17) and the 30 s burst
    # max (~22) on the 6-node Meiko for 1.5 MB files.
    rps = 20
    short_window = 10.0 if fast else 30.0
    long_window = 40.0 if fast else 120.0

    short_backlog, short_metrics = queue_trajectory(rps, short_window)
    long_backlog, long_metrics = queue_trajectory(rps, long_window)

    window = int(short_window)
    rows = [
        ["short burst", short_window, max(short_backlog),
         short_backlog[-1] if short_backlog else 0,
         short_metrics.drop_rate * 100.0],
        ["sustained", long_window, max(long_backlog),
         long_backlog[-1] if long_backlog else 0,
         long_metrics.drop_rate * 100.0],
    ]
    table = render_table(
        headers=["run", "window (s)", "peak backlog", "final backlog",
                 "drop (%)"],
        rows=rows,
        title=f"X8 — backlog dynamics at {rps} rps x 1.5 MB, Meiko-6",
        floatfmt=".1f")
    table += ("\n\nbacklog over time (1 s samples):\n"
              f"  short:     {ascii_sparkline(short_backlog, 60)}\n"
              f"  sustained: {ascii_sparkline(long_backlog, 60)}")

    # Queue growth during the offered window of the sustained run.
    growth = (long_backlog[int(long_window) - 1] - long_backlog[window - 1]
              if len(long_backlog) >= long_window else 0)
    comparisons = [
        ComparisonRow(
            "short bursts are absorbed by queueing",
            "requests in a short period can be queued",
            f"peak backlog {max(short_backlog)}, drops "
            f"{short_metrics.drop_rate:.0%}",
            "no (or few) drops for the short burst",
            ok=short_metrics.drop_rate < 0.05),
        ComparisonRow(
            "sustained overload grows the queue",
            "new requests coming after each second",
            f"backlog at t={window}s: {long_backlog[window - 1]:.0f} -> "
            f"t={int(long_window)}s: "
            f"{long_backlog[min(int(long_window), len(long_backlog)) - 1]:.0f}",
            "backlog keeps growing past the short window",
            ok=growth > 0),
        ComparisonRow(
            "hence short-period max > sustained max",
            "Table 1's two columns",
            f"sustained run drops {long_metrics.drop_rate:.1%} at a rate "
            f"the short run absorbs",
            "sustained drop rate >= short drop rate",
            ok=long_metrics.drop_rate >= short_metrics.drop_rate),
    ]
    notes = ("Same offered rate, different windows: the only difference is "
             "whether the backlog has time to hit the listen-queue limit.")
    return ExperimentReport(exp_id="X8", title="Burst dynamics (queueing)",
                            table=table,
                            data={"short": short_backlog,
                                  "long": long_backlog},
                            comparisons=comparisons, notes=notes)
