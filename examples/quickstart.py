#!/usr/bin/env python3
"""Quickstart: bring up a 6-node SWEB server and fetch some documents.

Builds the paper's primary testbed (the Meiko CS-2), places a small web
site across the nodes' disks, points a burst of browser-like clients at
the round-robin DNS name, and prints what happened.

Run:  python examples/quickstart.py
"""

from repro import SWEBCluster, meiko_cs2
from repro.obs import Tracer


def main() -> None:
    # A traced 6-node SWEB logical server with the multi-faceted scheduler.
    tracer = Tracer(max_requests=0, max_records=200)
    cluster = SWEBCluster(meiko_cs2(6), policy="sweb", seed=7, tracer=tracer)

    # A tiny site: the front page on node 0, images spread over the disks.
    cluster.add_file("/index.html", 8_000, home=0)
    for i in range(12):
        cluster.add_file(f"/images/photo{i}.gif", 400_000, home=i % 6)
    cluster.add_cgi("/cgi-bin/search", cpu_ops=5e6, output_bytes=10_000)

    # A graphical browser: the front page, then all images at once
    # (the paper's "burst of requests … one for each graphics image").
    client = cluster.client()
    client.fetch("/index.html")
    for i in range(12):
        client.fetch(f"/images/photo{i}.gif")
    client.fetch("/cgi-bin/search")

    cluster.run(until=60.0)

    metrics = cluster.metrics
    print("SWEB quickstart")
    print("===============")
    print(f"requests:   {metrics.total}, completed {metrics.completed}, "
          f"dropped {metrics.dropped}")
    summary = metrics.response_summary()
    print(f"response:   mean {summary.mean * 1e3:.1f} ms, "
          f"p90 {summary.p90 * 1e3:.1f} ms, max {summary.maximum * 1e3:.1f} ms")
    print(f"redirected: {metrics.counters['redirected']} requests "
          f"(SWEB second-stage assignment)")
    print(f"served by:  {metrics.served_by_histogram()}")
    print()
    print("Per-phase mean cost (the paper's Table 5 breakdown):")
    breakdown = metrics.phase_breakdown()
    for phase in breakdown.phases():
        print(f"  {phase:<14} {breakdown.mean(phase) * 1e3:8.2f} ms")
    print()
    print("First trace lines (Figure 1's transaction, live):")
    for record in tracer.filter(category="http")[:8]:
        print("  " + record.format())


if __name__ == "__main__":
    main()
