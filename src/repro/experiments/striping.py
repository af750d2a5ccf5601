"""Extension X6 — parallel retrieval from inexpensive disks.

§1: "using the idle cycles of those processing units and retrieving
files in parallel from inexpensive disks can significantly improve the
scalability of the server."  The paper never isolates that claim; we do:
the same large-file corpus is placed whole-file vs striped across all
six disks, and we measure both the single-fetch latency (cold cache) and
the sustained throughput under a burst that defeats the page caches.
"""

from __future__ import annotations

from ..core import SWEBCluster
from ..cluster import meiko_cs2
from ..sim import RandomStreams, join
from ..web import Client
from .base import ExperimentReport
from .tables import ComparisonRow, render_table

__all__ = ["run"]

FILE_SIZE = 6e6   # a full-resolution aerial photograph
N_FILES = 40      # working set 240 MB >> 6 x 32 MB of RAM


def _build(striped: bool, stripe_width: int = 6) -> SWEBCluster:
    cluster = SWEBCluster(meiko_cs2(6), policy="sweb", seed=1)
    for i in range(N_FILES):
        path = f"/photos/p{i:03d}.tif"
        if striped:
            stripes = [(i + k) % 6 for k in range(stripe_width)]
            cluster.add_striped_file(path, FILE_SIZE, stripes=stripes)
        else:
            cluster.add_file(path, FILE_SIZE, home=i % 6)
    return cluster


def _cold_fetch_latency(striped: bool) -> float:
    cluster = _build(striped)
    rec = cluster.run(until=cluster.fetch("/photos/p000.tif"))
    assert rec.ok
    return rec.response_time


def _burst(striped: bool, rps: int, duration: float):
    cluster = _build(striped)
    rng = RandomStreams(seed=42)
    client = Client(cluster, timeout=240.0)
    sim = cluster.sim

    def driver():
        procs = []
        for second in range(int(duration)):
            if second > sim.now:
                yield sim.timeout(second - sim.now)
            for _ in range(rps):
                idx = rng.integers("pick", 0, N_FILES)
                procs.append(client.fetch(f"/photos/p{idx:03d}.tif"))
        yield join(sim, procs)

    done = sim.spawn(driver(), name="driver")
    sim.run(until=done)
    return cluster


def run(fast: bool = True) -> ExperimentReport:
    duration = 10.0 if fast else 30.0
    rps = 4

    lat_whole = _cold_fetch_latency(False)
    lat_striped = _cold_fetch_latency(True)
    whole = _burst(False, rps, duration)
    striped = _burst(True, rps, duration)

    def stats(cluster):
        m = cluster.metrics
        return (m.mean_response_time(), m.drop_rate)

    rt_whole, drop_whole = stats(whole)
    rt_striped, drop_striped = stats(striped)
    rows = [
        ["whole-file placement", lat_whole, rt_whole, drop_whole * 100.0],
        ["6-way striped", lat_striped, rt_striped, drop_striped * 100.0],
    ]
    table = render_table(
        headers=["placement", "cold fetch (s)", f"burst @{rps} rps (s)",
                 "drop (%)"],
        rows=rows,
        title=f"X6 — parallel retrieval from inexpensive disks "
              f"({FILE_SIZE / 1e6:.0f} MB photos)", floatfmt=".3f")

    comparisons = [
        ComparisonRow(
            "striping cuts cold-fetch latency",
            "parallel disk retrieval (§1)",
            f"{lat_whole:.2f}s -> {lat_striped:.2f}s "
            f"({lat_whole / lat_striped:.1f}x)",
            "at least 25% faster end-to-end (disk leaves the critical "
            "path; the client send remains)",
            ok=lat_striped < 0.75 * lat_whole),
        ComparisonRow(
            "striping helps under cache-defeating load",
            "disk channel is the bottleneck",
            f"{rt_whole:.2f}s -> {rt_striped:.2f}s",
            "striped no slower",
            ok=rt_striped <= rt_whole * 1.05),
    ]
    notes = ("Working set (240 MB) exceeds aggregate RAM, so bursts hit the "
             "disks; striping turns each 6 MB read into six parallel 1 MB "
             "chunk reads across the fat-tree.")
    return ExperimentReport(exp_id="X6",
                            title="Disk striping (parallel retrieval)",
                            table=table,
                            data={"cold": {"whole": lat_whole,
                                           "striped": lat_striped},
                                  "burst": {"whole": rt_whole,
                                            "striped": rt_striped}},
                            comparisons=comparisons, notes=notes)
