"""Detailed httpd behaviour tests (repro.web.server)."""

import pytest

from repro import SWEBCluster, meiko_cs2
from repro.core import CostParameters
from repro.obs import Tracer


def one_node(policy="round-robin", **kw):
    cluster = SWEBCluster(meiko_cs2(1), policy=policy, seed=1, **kw)
    cluster.add_file("/page.html", 1e4, home=0)
    return cluster


def test_connection_accounting_returns_to_zero():
    cluster = one_node()
    procs = [cluster.fetch("/page.html") for _ in range(5)]
    for p in procs:
        cluster.run(until=p)
    server = cluster.servers[0]
    assert server.connections_active == 0
    assert server.requests_handled == 5
    assert server.connections_refused == 0


def test_preprocessing_cpu_charged_even_for_404():
    cluster = one_node()
    rec = cluster.run(until=cluster.fetch("/nope.html"))
    assert rec.status == 404
    cats = cluster.cpu_seconds_by_category()
    assert cats.get("parsing", 0.0) > 0
    assert cats.get("fork", 0.0) > 0


def test_404_has_no_data_transfer_phase():
    cluster = one_node()
    rec = cluster.run(until=cluster.fetch("/nope.html"))
    assert "data_transfer" not in rec.phases
    assert "preprocessing" in rec.phases


def test_head_vs_get_cpu_send_cost():
    c1 = one_node()
    c1.run(until=c1.client().fetch("/page.html", method="GET"))
    get_send = c1.cpu_seconds_by_category().get("send", 0.0)
    c2 = one_node()
    c2.run(until=c2.client().fetch("/page.html", method="HEAD"))
    head_send = c2.cpu_seconds_by_category().get("send", 0.0)
    assert head_send < get_send


def test_trace_emits_file_read_events():
    trace = Tracer()
    cluster = one_node(tracer=trace)
    cluster.run(until=cluster.fetch("/page.html"))
    reads = trace.filter(category="io", action="file_read")
    assert len(reads) == 1
    assert reads[0].detail["path"] == "/page.html"
    assert reads[0].detail["source"] in ("cache", "disk")


def test_server_repr_and_hostname():
    cluster = one_node()
    server = cluster.servers[0]
    assert "node=0" in repr(server)
    assert server.hostname == "sweb0.cs.ucsb.edu"


def test_backlog_validation():
    with pytest.raises(ValueError):
        SWEBCluster(meiko_cs2(1), backlog=0)


def test_response_wire_bytes_exceed_body():
    # Headers cost real bytes on the wire: response time for a tiny file
    # is dominated by fixed costs, not the 1-byte body.
    cluster = one_node()
    cluster.add_file("/tiny.html", 1.0, home=0)
    rec = cluster.run(until=cluster.fetch("/tiny.html"))
    assert rec.ok
    assert rec.response_time > 0.07     # preprocess floor


def test_redirect_limit_prevents_ping_pong():
    # Under file-locality every node wants to move the request to the
    # home node; once redirected, the target MUST serve it even if its
    # own policy would bounce it elsewhere.
    cluster = SWEBCluster(meiko_cs2(3), policy="file-locality", seed=1)
    cluster.add_file("/f.gif", 1e5, home=2)
    rec = cluster.run(until=cluster.fetch("/f.gif"))
    assert rec.ok
    assert rec.served_by == 2
    # exactly one redirect happened cluster-wide
    assert cluster.total_redirections() == 1


def test_scheduling_cpu_only_charged_when_broker_consulted():
    rr = one_node(policy="round-robin")
    rr.run(until=rr.fetch("/page.html"))
    assert "scheduling" not in rr.cpu_seconds_by_category()
    sw = one_node(policy="sweb")
    sw.run(until=sw.fetch("/page.html"))
    assert sw.cpu_seconds_by_category().get("scheduling", 0.0) > 0


def test_custom_cost_parameters_change_behaviour():
    fast_params = CostParameters(preprocess_ops=1e3, fork_ops=1e3)
    slow_params = CostParameters(preprocess_ops=8e6, fork_ops=1e6)
    c_fast = one_node(params=fast_params)
    c_slow = one_node(params=slow_params)
    r_fast = c_fast.run(until=c_fast.fetch("/page.html"))
    r_slow = c_slow.run(until=c_slow.fetch("/page.html"))
    assert r_fast.response_time < r_slow.response_time
