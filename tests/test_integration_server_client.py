"""End-to-end integration tests: client → DNS → httpd → broker → reply."""

import pytest

from repro import SWEBCluster, meiko_cs2, sun_now, RUTGERS_CLIENT, UCSB_CLIENT
from repro.core import CostParameters
from repro.obs import Tracer
from repro.sim import Event, FairShareServer, Simulator, join


def small_cluster(policy="sweb", n=3, **kw):
    cluster = SWEBCluster(meiko_cs2(n), policy=policy, seed=7, **kw)
    cluster.add_file("/index.html", 1024.0, home=0)
    cluster.add_file("/big.gif", 1.5e6, home=1)
    return cluster


def test_basic_fetch_completes_with_200():
    cluster = small_cluster()
    proc = cluster.fetch("/index.html")
    rec = cluster.run(until=proc)
    assert rec.ok and rec.status == 200
    assert rec.response_time is not None and rec.response_time > 0
    assert rec.served_by is not None


def test_missing_file_gets_404():
    cluster = small_cluster()
    proc = cluster.fetch("/missing.html")
    rec = cluster.run(until=proc)
    assert rec.status == 404 and not rec.ok and not rec.dropped


def test_post_gets_501():
    cluster = small_cluster()
    client = cluster.client()
    proc = client.fetch("/index.html", method="POST")
    rec = cluster.run(until=proc)
    assert rec.status == 501


def test_head_returns_no_body_faster():
    cluster = small_cluster(policy="round-robin")
    client = cluster.client()
    p1 = client.fetch("/big.gif", method="HEAD")
    rec_head = cluster.run(until=p1)
    cluster2 = small_cluster(policy="round-robin")
    p2 = cluster2.client().fetch("/big.gif", method="GET")
    rec_get = cluster2.run(until=p2)
    assert rec_head.ok and rec_get.ok
    assert rec_head.response_time < rec_get.response_time


def test_dns_round_robin_spreads_requests():
    cluster = small_cluster(policy="round-robin", n=3)
    client = cluster.client()
    procs = [client.fetch("/index.html") for _ in range(6)]
    for p in procs:
        cluster.run(until=p)
    dns_nodes = [r.dns_node for r in cluster.metrics.records]
    assert dns_nodes == [0, 1, 2, 0, 1, 2]


def test_redirect_once_only_and_marked():
    # File lives on node 1; client lands on node 0 under file-locality.
    cluster = SWEBCluster(meiko_cs2(2), policy="file-locality", seed=1)
    cluster.add_file("/only-on-1.gif", 1.5e6, home=1)
    client = cluster.client()
    proc = client.fetch("/only-on-1.gif")
    rec = cluster.run(until=proc)
    assert rec.ok
    assert rec.dns_node == 0
    assert rec.served_by == 1
    assert rec.redirected
    assert cluster.total_redirections() == 1


def test_cgi_executes_and_returns_output():
    cluster = small_cluster()
    cluster.add_cgi("/cgi-bin/query", cpu_ops=4e6, output_bytes=2e4)
    proc = cluster.fetch("/cgi-bin/query")
    rec = cluster.run(until=proc)
    assert rec.ok
    shares = cluster.cpu_seconds_by_category()
    assert shares.get("cgi", 0.0) == pytest.approx(0.1)  # 4e6 ops / 40e6


def test_cgi_never_redirected():
    cluster = SWEBCluster(meiko_cs2(2), policy="file-locality", seed=1)
    cluster.add_cgi("/cgi-bin/q", cpu_ops=1e6, output_bytes=100.0)
    proc = cluster.fetch("/cgi-bin/q")
    rec = cluster.run(until=proc)
    assert rec.ok and not rec.redirected


def test_backlog_overflow_refuses_connections():
    cluster = SWEBCluster(meiko_cs2(1), policy="round-robin", seed=1,
                          backlog=4)
    cluster.add_file("/big.gif", 1.5e6, home=0)
    client = cluster.client()
    procs = [client.fetch("/big.gif") for _ in range(12)]
    for p in procs:
        cluster.run(until=p)
    refused = [r for r in cluster.metrics.records
               if r.dropped and r.drop_reason == "refused"]
    assert len(refused) >= 1
    assert cluster.servers[0].connections_refused == len(refused)


def test_client_timeout_drops_request():
    # One node, glacial disk: the fetch cannot finish within the timeout.
    spec = meiko_cs2(1)
    from dataclasses import replace
    slow_nodes = tuple(replace(ns, disk_bandwidth=1e3) for ns in spec.nodes)
    spec = replace(spec, nodes=slow_nodes)
    cluster = SWEBCluster(spec, policy="round-robin", seed=1)
    cluster.add_file("/huge.gif", 1e6, home=0)
    client = cluster.client(timeout=5.0)
    proc = client.fetch("/huge.gif")
    rec = cluster.run(until=proc)
    assert rec.dropped and rec.drop_reason == "timeout"
    assert rec.end == pytest.approx(5.0, abs=0.2)


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"),
                                     float("inf")])
def test_client_timeout_must_be_finite_and_positive(timeout):
    # NaN passed the old `timeout <= 0` check and made every deadline NaN.
    cluster = small_cluster()
    with pytest.raises(ValueError, match="finite and > 0"):
        cluster.client(timeout=timeout)


# The client's reply-or-deadline wait, recorded when its first-leg join
# lived in cluster.network: per case, the waiter's log (reply dispatched,
# deadline dispatched, clock), or the failure it caught, and the run's
# event_count.  AnyOf, which that join replaced, resumed the waiter at
# the same clocks with the same leg won, one dispatch later when a leg
# won in its own dispatch (reply, deadline, same_instant); so the
# deadline due at the reply's instant has not fired when the waiter
# resumes.  A processed or failed leg goes through the lane, as it did.
_FIRST_LEG = {
    "reply": ([(True, False, 1.0)], 3),
    "deadline": ([(False, True, 2.0)], 3),
    "same_instant": ([(True, False, 1.0)], 3),
    "processed": ([(True, False, 0.25)], 5),
    "failed": ([("failed", "reset", 0.5)], 6),
}


@pytest.mark.parametrize("case", list(_FIRST_LEG))
def test_first_leg_join_dispatches_like_any_of(case):
    sim = Simulator()
    log = []
    reply = sim.timeout(0.0 if case == "processed" else
                        1.0 if case in ("reply", "same_instant") else 3.0,
                        value="reply")
    deadline = sim.timeout(1.0 if case == "same_instant" else 2.0)
    if case == "failed":
        reply = Event(sim)
        sim.timeout(0.5).callbacks.append(
            lambda ev: reply.fail(ConnectionResetError("reset")))

    def client():
        if case == "processed":
            yield sim.timeout(0.25)  # the reply is processed by then
        try:
            yield join(sim, (reply, deadline), need=1)
        except ConnectionResetError as exc:
            log.append(("failed", str(exc), sim.now))
            return
        log.append((reply.callbacks is None, deadline.callbacks is None,
                    sim.now))

    sim.spawn(client())
    sim.run()
    assert (log, sim.event_count) == _FIRST_LEG[case]


def test_departed_node_refuses_then_survivors_serve():
    cluster = small_cluster(policy="round-robin", n=3)
    cluster.node_leave(1)
    client = cluster.client()
    procs = [client.fetch("/index.html") for _ in range(3)]
    for p in procs:
        cluster.run(until=p)
    outcomes = [(r.dns_node, r.dropped) for r in cluster.metrics.records]
    # DNS still rotates to node 1 (stale zone), which refuses.
    assert (1, True) in outcomes
    assert (0, False) in outcomes and (2, False) in outcomes


def test_rutgers_client_pays_wan_latency():
    c1 = small_cluster(policy="round-robin")
    p1 = c1.client(profile=UCSB_CLIENT).fetch("/index.html")
    local_rec = c1.run(until=p1)
    c2 = small_cluster(policy="round-robin")
    p2 = c2.client(profile=RUTGERS_CLIENT).fetch("/index.html")
    remote_rec = c2.run(until=p2)
    assert remote_rec.response_time > local_rec.response_time


def test_phase_accounting_sums_to_response_time():
    cluster = small_cluster(policy="sweb")
    proc = cluster.fetch("/big.gif")
    rec = cluster.run(until=proc)
    assert rec.ok
    total_phases = sum(rec.phases.values())
    assert total_phases == pytest.approx(rec.response_time, rel=0.05)


def test_trace_records_full_transaction():
    trace = Tracer()
    cluster = SWEBCluster(meiko_cs2(2), policy="sweb", seed=1, tracer=trace)
    cluster.add_file("/a.html", 1e4, home=0)
    proc = cluster.fetch("/a.html")
    cluster.run(until=proc)
    actions = [rec.action for rec in trace.filter(category="http")]
    assert "dns_lookup" in actions
    assert "complete" in actions


def test_sweb_on_now_testbed_works_end_to_end():
    cluster = SWEBCluster(sun_now(2), policy="sweb", seed=3)
    cluster.add_file("/x.html", 2e4, home=0)
    proc = cluster.fetch("/x.html")
    rec = cluster.run(until=proc)
    assert rec.ok


def test_deterministic_replay_same_seed():
    def run_once():
        cluster = small_cluster(policy="sweb")
        client = cluster.client()
        procs = [client.fetch("/big.gif") for _ in range(5)]
        for p in procs:
            cluster.run(until=p)
        return [(r.response_time, r.served_by, r.dropped)
                for r in cluster.metrics.records]

    assert run_once() == run_once()


def test_replies_withdraw_their_deadlines(monkeypatch):
    """Every reply here beats its 120 s deadline, and the client withdraws
    the deadline's heap entry: the kernel's withdrawals are exactly those
    deadlines plus the fair-share stations' superseded wake-ups, and the
    heap never holds more than twice its live entries plus a constant."""
    stations = []
    build = FairShareServer.__init__

    def tracked(self, *args, **kwargs):
        build(self, *args, **kwargs)
        stations.append(self)

    monkeypatch.setattr(FairShareServer, "__init__", tracked)
    cluster = small_cluster()
    sim = cluster.sim
    client = cluster.client()
    worst = [0]

    def load():
        for i in range(60):
            client.fetch("/big.gif" if i % 3 else "/index.html")
            yield sim.timeout(0.05)

    def probe():
        while True:
            yield sim.timeout(0.01)
            worst[0] = max(worst[0], len(sim._queue) - 2 * sim.pending)

    sim.spawn(probe())
    cluster.run(until=sim.spawn(load()))
    cluster.run(until=sim.now + 60.0)
    records = cluster.metrics.records
    assert len(records) == 60 and all(rec.ok for rec in records)
    superseded = sum(station.wakeups_superseded for station in stations)
    assert superseded > 0
    assert sim.cancelled == len(records) + superseded
    assert worst[0] <= 2


def test_a_deadline_the_clock_cannot_resolve_fails_the_request():
    """At t = 2**60 one ulp of the clock is 256 s, so a 1 s deadline lands
    on ``now`` itself: the request fails with schedule()'s ValueError
    instead of timing out in the instant it starts."""
    sim = Simulator(start_time=2.0 ** 60)
    cluster = SWEBCluster(meiko_cs2(2), seed=7, sim=sim, start_loadd=False)
    cluster.add_file("/index.html", 1024.0, home=0)
    proc = cluster.fetch("/index.html", timeout=1.0)
    with pytest.raises(ValueError, match="schedule"):
        cluster.run(until=proc)
    assert not proc.ok and sim.cancelled == 0
