"""Unit tests for the broker and the scheduling policies."""

import pytest

from repro.core import SWEBCluster, make_policy, POLICY_NAMES
from repro.core.policies import (
    CPUOnlyPolicy,
    FileLocalityPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SWEBPolicy,
)
from repro.cluster import meiko_cs2


def make_cluster(policy="sweb", n=3, **kw):
    cluster = SWEBCluster(meiko_cs2(n), policy=policy, seed=1,
                          start_loadd=False, **kw)
    cluster.add_file("/on0.html", 1.5e6, home=0)
    cluster.add_file("/on1.html", 1.5e6, home=1)
    cluster.add_file("/on2.html", 1.5e6, home=2)
    return cluster


# ------------------------------------------------------------------- Broker
def test_broker_prefers_file_home_when_idle():
    cluster = make_cluster()
    broker = cluster.brokers[0]
    decision = broker.choose_server("/on2.html", client_latency=0.0)
    # With everyone idle, local service pays NFS (min(b1,b2) < b1) while
    # node 2 reads at full disk speed and redirection is free at 0 latency
    # minus t_connect... the cost model decides; the invariant is that the
    # winner's estimate is minimal.
    totals = {e.node: e.total for e in decision.estimates}
    assert decision.chosen in totals
    assert totals[decision.chosen] == min(totals.values())


def test_broker_avoids_loaded_node():
    cluster = make_cluster()
    broker = cluster.brokers[0]
    # Tell node 0's view that node 2 (the file home) is buried in work.
    from repro.core import LoadSnapshot
    cluster.views[0].update(LoadSnapshot(
        node=2, cpu_load=50.0, disk_load=50.0, net_load=0.0,
        cpu_speed=40e6, disk_bandwidth=5e6, timestamp=0.0))
    decision = broker.choose_server("/on2.html", client_latency=0.0)
    assert decision.chosen != 2


def test_broker_redirect_inflates_winner_load():
    cluster = make_cluster()
    broker = cluster.brokers[0]
    decision = broker.choose_server("/on2.html", client_latency=0.0)
    if decision.redirected:
        before_after = cluster.views[0].get(decision.chosen, 0.0)
        assert before_after.cpu_load > 0.0   # Δ-inflation applied
        assert broker.redirections == 1


def test_broker_counts_decisions():
    cluster = make_cluster()
    broker = cluster.brokers[1]
    broker.choose_server("/on1.html", client_latency=0.0)
    broker.choose_server("/on0.html", client_latency=0.0)
    assert broker.decisions == 2


def test_broker_missing_file_estimates_cpu_only():
    cluster = make_cluster()
    decision = cluster.brokers[0].choose_server("/nope.html",
                                                client_latency=0.0)
    assert decision.task.disk_bytes == 0.0


def test_broker_tie_prefers_local():
    cluster = make_cluster()
    # A non-existent tiny request: all-idle nodes tie on CPU cost; the
    # local node must win (no pointless redirection).
    decision = cluster.brokers[1].choose_server("/nope.html",
                                                client_latency=0.0)
    assert decision.chosen == 1


# ----------------------------------------------------------------- policies
def test_round_robin_always_local():
    cluster = make_cluster(policy="round-robin")
    policy = cluster.policy
    for node in range(3):
        d = policy.decide(cluster.brokers[node], "/on0.html", 0.0)
        assert d.chosen == node
        assert not d.redirected or node == 0


def test_file_locality_always_home():
    cluster = make_cluster(policy="file-locality")
    policy = cluster.policy
    for node in range(3):
        d = policy.decide(cluster.brokers[node], "/on2.html", 0.0)
        assert d.chosen == 2


def test_file_locality_missing_file_stays_local():
    cluster = make_cluster(policy="file-locality")
    d = cluster.policy.decide(cluster.brokers[1], "/nope.html", 0.0)
    assert d.chosen == 1


def test_cpu_only_picks_least_loaded():
    cluster = make_cluster(policy="cpu-only")
    from repro.core import LoadSnapshot
    for node, load in ((0, 5.0), (1, 0.0), (2, 9.0)):
        cluster.views[0].update(LoadSnapshot(
            node=node, cpu_load=load, disk_load=0.0, net_load=0.0,
            cpu_speed=40e6, disk_bandwidth=5e6, timestamp=0.0))
    d = cluster.policy.decide(cluster.brokers[0], "/on2.html", 0.0)
    assert d.chosen == 1


def test_random_policy_in_range():
    cluster = make_cluster(policy="random")
    seen = set()
    for _ in range(30):
        d = cluster.policy.decide(cluster.brokers[0], "/on0.html", 0.0)
        seen.add(d.chosen)
    assert seen <= {0, 1, 2}
    assert len(seen) >= 2


def test_make_policy_factory():
    for name in POLICY_NAMES:
        assert make_policy(name).name == name
    with pytest.raises(ValueError):
        make_policy("clairvoyant")


def test_policy_classes_expose_names():
    assert RoundRobinPolicy.name == "round-robin"
    assert FileLocalityPolicy.name == "file-locality"
    assert SWEBPolicy.name == "sweb"
    assert CPUOnlyPolicy.name == "cpu-only"
    assert RandomPolicy().name == "random"
    assert SWEBPolicy.consults_broker and CPUOnlyPolicy.consults_broker
    assert not RoundRobinPolicy.consults_broker


# ------------------------------------------ the shared decide() exceptions
def _pinned_view(cluster, node, candidates):
    """Make ``node``'s view offer exactly ``candidates``; return the list
    of nodes it is asked to inflate."""
    view = cluster.views[node]
    snaps = [view.get(c, 0.0) for c in candidates]
    view.available = lambda now: list(snaps)
    inflated = []
    inflate = view.inflate_cpu
    view.inflate_cpu = lambda n, delta: (inflated.append(n),
                                         inflate(n, delta))
    return inflated


@pytest.mark.parametrize("name, inflates", [
    ("cpu-only", True), ("jsq", True), ("lwl", True), ("chash", True),
    ("random", False), ("po2", False)])
def test_lone_remote_candidate_is_taken(name, inflates):
    """One believed-available node, not the local one: every load-aware
    policy moves the request there; random and po2's lone-candidate
    branch do not charge it Δ."""
    cluster = make_cluster(policy=name)
    inflated = _pinned_view(cluster, 0, [2])
    d = cluster.policy.decide(cluster.brokers[0], "/on1.html", 0.0)
    assert d.chosen == 2 and d.redirected
    assert d.task.disk_bytes == 1.5e6
    assert inflated == ([2] if inflates else [])


@pytest.mark.parametrize("name", ["cpu-only", "random", "jsq", "po2",
                                  "lwl", "chash"])
def test_no_candidates_serves_locally(name):
    cluster = make_cluster(policy=name)
    inflated = _pinned_view(cluster, 1, [])
    d = cluster.policy.decide(cluster.brokers[1], "/on2.html", 0.0)
    assert d.chosen == 1 and not d.redirected
    assert d.task.disk_bytes == 1.5e6
    assert inflated == []


@pytest.mark.parametrize("name", ["round-robin", "file-locality"])
def test_view_blind_policies_never_use_the_view(name):
    cluster = make_cluster(policy=name)

    def unreadable(*args):
        raise AssertionError("the view was used")

    cluster.views[0].available = unreadable
    cluster.views[0].inflate_cpu = unreadable
    d = cluster.policy.decide(cluster.brokers[0], "/on2.html", 0.0)
    assert d.chosen == (0 if name == "round-robin" else 2)
    assert d.task.disk_bytes == 1.5e6
