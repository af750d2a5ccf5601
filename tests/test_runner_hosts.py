"""Tests for DNS-cached client hosts in the scenario runner."""

import pytest

from repro.cluster import meiko_cs2
from repro.core import CostParameters
from repro.experiments.runner import run_scenario
from repro.sim import RandomStreams
from repro.workload import Scenario, burst_workload, uniform_corpus, uniform_sampler


def scenario(hosts, ttl, rps=4, duration=4.0, n=4, policy="round-robin",
             **kw):
    corpus = uniform_corpus(8, 1e4, n)
    wl = burst_workload(rps, duration,
                        uniform_sampler(corpus, RandomStreams(1)))
    return Scenario(name="hosts", spec=meiko_cs2(n), corpus=corpus,
                    workload=wl, policy=policy, seed=1,
                    hosts_per_profile=hosts, dns_ttl=ttl, **kw)


def test_single_host_no_ttl_rotates_per_request():
    res = run_scenario(scenario(hosts=1, ttl=0.0))
    dns_nodes = [r.dns_node for r in res.metrics.records]
    # Ideal rotation: every node appears equally often.
    counts = {n: dns_nodes.count(n) for n in set(dns_nodes)}
    assert len(counts) == 4
    assert max(counts.values()) - min(counts.values()) <= 1


def test_cached_hosts_pin_to_nodes():
    res = run_scenario(scenario(hosts=2, ttl=1000.0))
    by_client: dict[str, set] = {}
    for rec in res.metrics.records:
        by_client.setdefault(rec.client, set()).add(rec.dns_node)
    # Each host resolved once and stuck with its node for the whole run.
    assert set(by_client) == {"ucsb#0", "ucsb#1"}
    for nodes in by_client.values():
        assert len(nodes) == 1
    # Two hosts on four nodes: two nodes never saw DNS traffic.
    seen = set().union(*by_client.values())
    assert len(seen) == 2


def test_hosts_split_profile_load_round_robin():
    res = run_scenario(scenario(hosts=4, ttl=1000.0))
    counts = {}
    for rec in res.metrics.records:
        counts[rec.client] = counts.get(rec.client, 0) + 1
    assert len(counts) == 4
    assert max(counts.values()) - min(counts.values()) <= 1


def test_sweb_rebalances_pinned_hosts():
    # Two pinned hosts on four nodes: round-robin serves on two nodes;
    # SWEB spreads the heavy share with redirections.
    rr = run_scenario(scenario(hosts=2, ttl=1000.0, rps=10, duration=6.0,
                               policy="round-robin"))
    sw = run_scenario(scenario(hosts=2, ttl=1000.0, rps=10, duration=6.0,
                               policy="sweb"))
    rr_nodes = set(r.served_by for r in rr.metrics.records if r.ok)
    sw_nodes = set(r.served_by for r in sw.metrics.records if r.ok)
    assert len(rr_nodes) == 2
    assert len(sw_nodes) >= len(rr_nodes)


def test_forwarding_works_under_scenario_load():
    params = CostParameters(reassignment="forward")
    res = run_scenario(scenario(hosts=2, ttl=1000.0, rps=8, duration=6.0,
                                policy="sweb", params=params))
    assert res.drop_rate == 0.0
    forwards = sum(s.forwards_issued
                   for s in res.cluster.servers.values())
    redirects = res.cluster.total_redirections()
    assert redirects == 0          # no 302s in forward mode
    assert forwards >= 0           # mechanism exercised without error
