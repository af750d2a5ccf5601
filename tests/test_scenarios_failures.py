"""Paper-cell builder tests plus failure-injection tests."""

import pytest

from repro import SWEBCluster, meiko_cs2
from repro.cluster import sun_now
from repro.experiments.runner import run_scenario
from repro.experiments.skewed import skewed_scenario
from repro.experiments.table1 import table1_scenario
from repro.experiments.table3 import table3_scenario
from repro.experiments.table4 import table4_scenario


# --------------------------------------------------------- paper cells
def test_table3_scenario_builder():
    sc = table3_scenario(10, policy="round-robin", duration=5.0)
    assert sc.policy == "round-robin"
    assert sc.workload.offered_rps == pytest.approx(10.0)
    assert sc.spec.num_nodes == 6
    assert sc.dns_ttl == 300.0


#: cell name -> its builder; the arguments are the builder's own
_BUILDERS = {"table1": table1_scenario, "table3": table3_scenario,
             "table4": table4_scenario, "skewed": skewed_scenario}


@pytest.mark.parametrize("name,overrides", [
    ("table1", dict(spec=meiko_cs2(2), size=1e4, rps=2, duration=3.0)),
    ("table3", dict(rps=4, duration=3.0)),
    ("table4", dict(spec=sun_now(2), rps=1, duration=3.0)),
    ("skewed", dict(policy="round-robin", rps=2, duration=3.0)),
])
def test_named_scenarios_run_end_to_end(name, overrides):
    result = run_scenario(_BUILDERS[name](**overrides))
    assert result.metrics.total > 0
    assert result.completed + result.metrics.dropped <= result.metrics.total \
        or result.completed > 0


# ---------------------------------------------------------- failure injection
def test_all_nodes_leave_drops_everything():
    cluster = SWEBCluster(meiko_cs2(2), policy="round-robin", seed=1)
    cluster.add_file("/x.html", 1e3, home=0)
    for n in range(2):
        cluster.node_leave(n)
    recs = [cluster.run(until=cluster.fetch("/x.html")) for _ in range(3)]
    assert all(r.dropped and r.drop_reason == "refused" for r in recs)


def test_dns_zone_emptied_mid_run():
    cluster = SWEBCluster(meiko_cs2(2), policy="round-robin", seed=1)
    cluster.add_file("/x.html", 1e3, home=0)
    for n in range(2):
        cluster.dns.deregister(n)
    rec = cluster.run(until=cluster.fetch("/x.html"))
    assert rec.dropped and rec.drop_reason == "dns"


def test_inflight_requests_survive_node_departure():
    # A node leaving stops *accepting*; requests already in service finish.
    cluster = SWEBCluster(meiko_cs2(1), policy="round-robin", seed=1)
    cluster.add_file("/big.gif", 1.5e6, home=0)
    proc = cluster.fetch("/big.gif")
    sim = cluster.sim

    def leaver():
        yield sim.timeout(0.2)      # request is mid-flight by now
        cluster.node_leave(0)

    sim.spawn(leaver())
    rec = cluster.run(until=proc)
    assert rec.ok


def test_redirect_target_dies_before_second_hop():
    # File-locality redirects to node 1; node 1 dies before the client's
    # second connection arrives -> the retry is refused, counted as drop.
    cluster = SWEBCluster(meiko_cs2(2), policy="file-locality", seed=1)
    cluster.add_file("/on1.gif", 1.5e6, home=1)
    sim = cluster.sim
    proc = cluster.fetch("/on1.gif")

    def killer():
        # Kill node 1 while the 302 is still travelling back.
        yield sim.timeout(0.05)
        cluster.node_leave(1)

    sim.spawn(killer())
    rec = cluster.run(until=proc)
    assert rec.dropped and rec.drop_reason == "refused"
    assert rec.redirected


def test_zero_byte_file_served():
    cluster = SWEBCluster(meiko_cs2(2), policy="sweb", seed=1)
    cluster.add_file("/empty.html", 0.0, home=0)
    rec = cluster.run(until=cluster.fetch("/empty.html"))
    assert rec.ok and rec.size == 0.0


def test_malformed_request_gets_400():
    from repro.sim import Event
    from repro.web.server import Connection
    from repro.web.client import UCSB_CLIENT

    cluster = SWEBCluster(meiko_cs2(1), policy="round-robin", seed=1)
    server = cluster.servers[0]
    rec = cluster.metrics.new_record("/junk", start=0.0)
    conn = Connection(raw_request="THIS IS NOT HTTP\r\n\r\n",
                      wan=UCSB_CLIENT.wan, record=rec,
                      reply=Event(cluster.sim))
    assert server.try_accept(conn)
    response = cluster.run(until=conn.reply)
    assert response.status == 400


def test_dispatcher_mode_routes_all_through_node_zero():
    cluster = SWEBCluster(meiko_cs2(3), policy="sweb", seed=1, dispatcher=0)
    cluster.add_file("/a.html", 1e3, home=1)
    recs = [cluster.run(until=cluster.fetch("/a.html")) for _ in range(4)]
    assert all(r.dns_node == 0 for r in recs)
    assert all(r.ok for r in recs)


def test_dispatcher_validation():
    with pytest.raises(ValueError):
        SWEBCluster(meiko_cs2(2), dispatcher=7)
