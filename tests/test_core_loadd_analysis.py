"""Unit tests for the load daemon and the §3.3 analysis."""

import pytest

from repro.cluster import meiko_cs2
from repro.core import (
    AnalysisInputs,
    CostParameters,
    SWEBCluster,
    max_sustained_rps,
    paper_example,
    service_demand,
)


# -------------------------------------------------------------------- loadd
def test_initial_broadcast_populates_all_views():
    cluster = SWEBCluster(meiko_cs2(4), start_loadd=False)
    for view in cluster.views.values():
        assert view.known_nodes() == [0, 1, 2, 3]


def test_periodic_broadcasts_refresh_views():
    cluster = SWEBCluster(meiko_cs2(3))
    cluster.run(until=10.0)
    # ~10 s / 2.5 s period -> several broadcasts per daemon.
    for daemon in cluster.loadds.values():
        assert daemon.broadcasts >= 3
        assert daemon.messages_sent == daemon.broadcasts * 2
    # Views carry recent timestamps.
    snap = cluster.views[0].get(2, now=10.0)
    assert snap is not None
    assert snap.timestamp > 5.0


def test_departed_node_goes_stale_in_peer_views():
    cluster = SWEBCluster(meiko_cs2(3))
    cluster.node_leave(2)
    cluster.run(until=cluster.params.staleness_timeout + 5.0)
    now = cluster.sim.now
    assert cluster.views[0].get(2, now) is None
    assert cluster.views[1].get(2, now) is None
    # The survivors still see each other.
    assert cluster.views[0].get(1, now) is not None


def test_rejoined_node_becomes_visible_again():
    cluster = SWEBCluster(meiko_cs2(3))
    cluster.node_leave(2)
    cluster.run(until=15.0)
    cluster.node_join(2)
    cluster.run(until=20.0)
    assert cluster.views[0].get(2, cluster.sim.now) is not None


def test_loadd_samples_cpu_window_average():
    cluster = SWEBCluster(meiko_cs2(2), start_loadd=False)
    node = cluster.nodes[0]
    daemon = cluster.loadds[0]

    def burn():
        # Two concurrent 1-second jobs for the whole window.
        node.compute(40e6)
        node.compute(40e6)
        yield cluster.sim.timeout(2.0)

    cluster.sim.spawn(burn())
    cluster.run(until=1.0)
    snap = daemon.sample()
    assert snap.cpu_load == pytest.approx(2.0, rel=0.05)


def test_loadd_cpu_cost_is_accounted():
    cluster = SWEBCluster(meiko_cs2(2))
    cluster.run(until=30.0)
    shares = cluster.cpu_share_by_category()
    assert 0.0 < shares.get("loadd", 0.0) < 0.01   # well under 1 %


# ----------------------------------------------------------------- analysis
def test_paper_example_reproduces_quoted_numbers():
    inputs = paper_example()
    per_node = max_sustained_rps(inputs, per_node=True)
    total = max_sustained_rps(inputs)
    assert per_node == pytest.approx(2.88, abs=0.02)
    assert total == pytest.approx(17.3, abs=0.15)


def test_service_demand_decreases_with_more_nodes_when_local_is_faster():
    # b1 > b2: more nodes => larger remote fraction => *higher* demand,
    # but p in the numerator wins: total rps still grows.
    base = dict(F=1.5e6, b1=5e6, b2=4.5e6, d=0.0, A=0.02, O=0.0)
    r2 = max_sustained_rps(AnalysisInputs(p=2, **base))
    r6 = max_sustained_rps(AnalysisInputs(p=6, **base))
    assert r6 > r2


def test_single_node_demand_is_pure_local():
    inputs = AnalysisInputs(p=1, F=1e6, b1=5e6, b2=1e6, d=0.0, A=0.01)
    assert service_demand(inputs) == pytest.approx(1e6 / 5e6 + 0.01)


def test_redirection_probability_adds_overhead():
    quiet = AnalysisInputs(p=4, F=1e6, b1=5e6, b2=5e6, d=0.0, A=0.02, O=0.01)
    busy = AnalysisInputs(p=4, F=1e6, b1=5e6, b2=5e6, d=0.5, A=0.02, O=0.01)
    assert service_demand(busy) > service_demand(quiet)


def test_analysis_validation():
    with pytest.raises(ValueError):
        AnalysisInputs(p=0, F=1.0, b1=1.0, b2=1.0)
    with pytest.raises(ValueError):
        AnalysisInputs(p=1, F=-1.0, b1=1.0, b2=1.0)
    with pytest.raises(ValueError):
        AnalysisInputs(p=1, F=1.0, b1=0.0, b2=1.0)
    with pytest.raises(ValueError):
        AnalysisInputs(p=1, F=1.0, b1=1.0, b2=1.0, d=1.5)
