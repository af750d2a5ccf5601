"""Fault injection and graceful degradation (repro.faults + X9)."""

import pytest

from repro import SWEBCluster, meiko_cs2
from repro.core.costmodel import CostParameters
from repro.faults import Fault, FaultPlan, FaultSpecError


# ------------------------------------------------------------ plan parsing
def test_parse_every_kind():
    plan = FaultPlan.parse("crash:n2@30,partition:10-20,slowdisk:n1@5-25x4,"
                           "mute:n3@10-30,corrupt:n2@10-30x0")
    assert [f.kind for f in plan] == ["crash", "partition", "slowdisk",
                                     "mute", "corrupt"]
    crash, part, slow, mute, corrupt = plan
    assert crash.node == 2 and crash.start == 30.0 and crash.end is None
    assert part.groups == () and (part.start, part.end) == (10.0, 20.0)
    assert slow.factor == 4.0 and (slow.start, slow.end) == (5.0, 25.0)
    assert mute.node == 3
    assert corrupt.factor == 0.0


def test_parse_explicit_partition_groups():
    plan = FaultPlan.parse("partition:n0+n1|n2@10-20")
    (fault,) = plan
    assert fault.groups == ((0, 1), (2,))


def test_parse_crash_with_restart():
    (fault,) = FaultPlan.parse("crash:n0@30-50")
    assert (fault.start, fault.end) == (30.0, 50.0)


def test_corrupt_factor_defaults_to_zero():
    (fault,) = FaultPlan.parse("corrupt:n1@5")
    assert fault.factor == 0.0 and fault.end is None


@pytest.mark.parametrize("spec", [
    "",                        # empty
    "fire:n1@3",               # unknown kind
    "crash:n1",                # missing window
    "crash:@5",                # missing node
    "crash:node1@5",           # bad node syntax
    "crash:n1@ten",            # bad time
    "crash:n1@5-5",            # empty window
    "partition:20-10",         # reversed window
    "partition:5",             # partition needs an end
    "slowdisk:n1@5-25",        # slowdisk needs a factor
    "slowdisk:n1@5-25x0.5",    # factor < 1
    "slowdisk:n1@5-25xfast",   # unparseable factor
    "corrupt:n1@5-25x-1",      # negative corruption factor
])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(FaultSpecError):
        FaultPlan.parse(spec)


def test_builders_match_parse():
    built = FaultPlan([Fault("crash", start=30.0, node=2),
                       Fault("partition", start=10.0, end=20.0),
                       Fault("slowdisk", start=5.0, end=25.0, node=1,
                             factor=4.0)])
    parsed = FaultPlan.parse("crash:n2@30,partition:10-20,slowdisk:n1@5-25x4")
    assert built.faults == parsed.faults
    assert built.describe() == parsed.describe()


def test_validate_rejects_out_of_range_nodes():
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("crash:n9@5").validate(4)
    with pytest.raises(FaultSpecError):
        FaultPlan.parse("partition:n0|n9@5-10").validate(4)
    FaultPlan.parse("crash:n3@5").validate(4)   # in range: fine


def test_fault_is_plain_data():
    fault = Fault("mute", start=1.0, end=2.0, node=0)
    assert "mute n0" in fault.describe()
    with pytest.raises(FaultSpecError):
        Fault("partition", start=1.0, node=0)   # partition has no node


# ----------------------------------------------------------- the injector
def test_injector_applies_and_reverts_everything():
    cluster = SWEBCluster(meiko_cs2(3), policy="sweb", seed=1)
    plan = FaultPlan.parse("crash:n0@1-2,slowdisk:n1@1-3x4,mute:n2@1-2.5,"
                           "corrupt:n2@3-4x0.5")
    injector = cluster.attach_faults(plan)
    sim = cluster.sim

    cluster.run(until=sim.timeout(1.5))         # mid-window
    assert cluster.nodes[0].crashed and not cluster.nodes[0].alive
    assert cluster.nodes[1].disk.degrade_factor == 4.0
    assert cluster.loadds[2].muted

    cluster.run(until=sim.timeout(5.0))         # past every end time
    assert cluster.nodes[0].alive and not cluster.nodes[0].crashed
    assert cluster.nodes[1].disk.degrade_factor == 1.0
    assert not cluster.loadds[2].muted
    assert cluster.loadds[2].corrupt_factor is None

    assert len(injector.log) == 8               # 4 applies + 4 reverts
    assert injector.applied("crash") == 1
    for kind in ("crash", "slowdisk", "mute", "corrupt"):
        times = [r.time for r in injector.log if r.fault.kind == kind]
        assert times == sorted(times)           # apply precedes revert
    assert "crash n0" in injector.report()


def test_attach_faults_accepts_spec_strings():
    cluster = SWEBCluster(meiko_cs2(2), policy="sweb", seed=1)
    injector = cluster.attach_faults("mute:n1@0.5-1.0")
    cluster.run(until=cluster.sim.timeout(2.0))
    assert injector.applied("mute") == 1
    with pytest.raises(FaultSpecError):
        cluster.attach_faults("crash:n7@1")     # validated against 2 nodes


def test_partition_heals_and_views_reconverge():
    cluster = SWEBCluster(meiko_cs2(4), policy="sweb", seed=1)
    injector = cluster.attach_faults("partition:2-6")
    sim = cluster.sim

    cluster.run(until=sim.timeout(4.0))         # t=4: split in halves
    assert cluster.network.reachable(0, 1)
    assert not cluster.network.reachable(0, 3)

    cluster.run(until=sim.timeout(5.0))         # t=9: healed at 6
    assert all(cluster.network.reachable(a, b)
               for a in range(4) for b in range(4))
    assert cluster.network.transfers_lost > 0   # loadd heartbeats were lost
    # heal triggers an immediate re-announce, so every view is fresh again
    assert set(cluster.availability(0).values()) == {"available"}
    assert [r.action for r in injector.log] == ["apply", "revert"]


# ----------------------------------------------- graceful degradation: broker
def test_stale_fallback_engages_and_disengages():
    params = CostParameters(graceful_degradation=True)
    cluster = SWEBCluster(meiko_cs2(3), params=params, seed=1)
    cluster.add_file("/a.html", 2e4, home=1)
    sim = cluster.sim
    for daemon in cluster.loadds.values():
        daemon.muted = True                     # total heartbeat blackout

    # Engage: every peer snapshot is older than fallback_staleness.
    cluster.run(until=sim.timeout(params.fallback_staleness + 1.0))
    rec = cluster.run(until=cluster.fetch("/a.html"))
    assert rec.ok
    assert cluster.total_fallbacks() >= 1
    assert not rec.redirected                   # fallback serves locally

    # Disengage: heartbeats resume, views refresh, brokers trust them again.
    for daemon in cluster.loadds.values():
        daemon.muted = False
        daemon.broadcast_now()
    cluster.run(until=sim.timeout(0.5))
    before = cluster.total_fallbacks()
    rec = cluster.run(until=cluster.fetch("/a.html"))
    assert rec.ok
    assert cluster.total_fallbacks() == before


def test_faithful_mode_never_falls_back():
    cluster = SWEBCluster(meiko_cs2(3), seed=1)   # defaults: graceful off
    cluster.add_file("/a.html", 2e4, home=1)
    sim = cluster.sim
    for daemon in cluster.loadds.values():
        daemon.muted = True
    cluster.run(until=sim.timeout(30.0))        # far beyond any staleness
    rec = cluster.run(until=cluster.fetch("/a.html"))
    assert rec.end is not None
    assert cluster.total_fallbacks() == 0


def test_suspected_node_is_not_a_redirect_target():
    params = CostParameters(graceful_degradation=True)
    cluster = SWEBCluster(meiko_cs2(3), params=params, seed=1)
    sim = cluster.sim
    cluster.loadds[2].muted = True              # node 2 stops heartbeating
    cluster.run(until=sim.timeout(params.suspicion_timeout + 1.0))
    view = cluster.availability(0)
    assert view[0] == "available" and view[1] == "available"
    assert view[2] == "suspect"
    assert cluster.views[0].suspected(2, sim.now)
    assert not cluster.views[0].suspected(0, sim.now)   # never self-suspect


# ----------------------------------------------- graceful degradation: client
def test_crash_resets_inflight_connections():
    # Paper-faithful mode: a crash mid-transfer fails the request fast
    # (TCP reset analog) instead of stalling it to the 120 s timeout.
    cluster = SWEBCluster(meiko_cs2(1), policy="round-robin", seed=1)
    cluster.add_file("/big.bin", 5e6, home=0)
    sim = cluster.sim
    proc = cluster.fetch("/big.bin")

    def killer():
        yield sim.timeout(0.3)
        cluster.node_crash(0)

    sim.spawn(killer())
    rec = cluster.run(until=proc)
    assert rec.dropped and rec.drop_reason == "reset"
    assert cluster.servers[0].connections_reset == 1
    assert rec.response_time < 1.0              # failed fast, no 120 s stall


def test_crash_during_redirect_recovers_with_retry():
    # File-locality redirects to node 1; node 1 crashes while the 302 is
    # in flight.  Paper-faithful drops ("refused"); graceful retries the
    # connection elsewhere and completes, redirect rule intact.
    def run(graceful: bool):
        params = CostParameters(graceful_degradation=graceful)
        cluster = SWEBCluster(meiko_cs2(2), policy="file-locality",
                              params=params, seed=1)
        cluster.add_file("/on1.gif", 1.5e6, home=1)
        sim = cluster.sim
        proc = cluster.fetch("/on1.gif")

        def killer():
            yield sim.timeout(0.05)
            cluster.node_crash(1)

        sim.spawn(killer())
        return cluster.run(until=proc)

    rec = run(graceful=False)
    assert rec.dropped and rec.drop_reason == "refused"
    assert rec.redirected and rec.retries == 0

    rec = run(graceful=True)
    assert rec.ok and rec.redirected
    assert rec.retries >= 1


def test_retry_backoff_is_bounded():
    params = CostParameters(graceful_degradation=True,
                            client_retries=2, retry_backoff=0.2)
    cluster = SWEBCluster(meiko_cs2(2), params=params, seed=1)
    cluster.add_file("/x.html", 1e3, home=0)
    for n in (0, 1):
        cluster.node_crash(n)                   # nowhere to retry to
    rec = cluster.run(until=cluster.fetch("/x.html"))
    assert rec.dropped and rec.drop_reason == "refused"
    assert rec.retries == params.client_retries  # exhausted, then stopped
    assert cluster.metrics.counters["retries"] == params.client_retries
    # the two backoffs (0.2 + 0.4) were actually waited, and the request
    # still failed fast — far from the 120 s client timeout
    assert 0.6 <= rec.response_time < 5.0


def test_retries_off_in_faithful_mode():
    cluster = SWEBCluster(meiko_cs2(2), seed=1)
    cluster.add_file("/x.html", 1e3, home=0)
    cluster.node_crash(0)
    cluster.node_crash(1)
    rec = cluster.run(until=cluster.fetch("/x.html"))
    assert rec.dropped and rec.retries == 0
    assert cluster.metrics.counters["retries"] == 0


# --------------------------------------------------------------- X9 end to end
def test_x9_graceful_strictly_beats_faithful():
    from repro.experiments.faults import run_faulted

    faithful = run_faulted(graceful=False)
    graceful = run_faulted(graceful=True)
    # identical workload, identical fault plan: degradation must pay off
    assert graceful.drop_rate < faithful.drop_rate
    assert graceful.fallback_count > 0 and faithful.fallback_count == 0
    assert graceful.retry_count > 0 and faithful.retry_count == 0
    assert faithful.reset_count > 0             # the crash actually bit
    # the at-most-once redirect rule survives degradation
    assert all(r.phases.get("redirection", 0.0) >= 0.0
               for r in graceful.metrics.records)
    assert graceful.injector is not None
    assert graceful.injector.applied("crash") == 1


def test_scenario_faults_field_accepts_plan_objects():
    from repro.experiments.faults import run_faulted

    plan = FaultPlan.parse("mute:n0@1-2")
    result = run_faulted(graceful=False, duration=4.0, rps=4, plan=plan)
    assert result.injector is not None
    assert result.injector.applied("mute") == 1
