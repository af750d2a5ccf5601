"""Tests for the adaptive oracle and striped files."""

import pytest

from repro import SWEBCluster, meiko_cs2
from repro.core import AdaptiveOracle, Oracle, OracleRule
from repro.web import CGIRegistry


# ------------------------------------------------------------------ oracle
def test_adaptive_starts_from_static_table():
    oracle = AdaptiveOracle(rules=[OracleRule(pattern="*", ops_per_byte=2.0)])
    est = oracle.characterize("/x.gif", 100.0)
    assert est.cpu_ops == pytest.approx(200.0)


def test_adaptive_learns_after_min_observations():
    oracle = AdaptiveOracle(rules=[OracleRule(pattern="*", ops_per_byte=0.1)],
                            alpha=1.0, min_observations=3)
    for _ in range(2):
        oracle.observe("/m.gif", 1000.0, 6000.0)   # true rate: 6 ops/byte
    # Not yet trusted.
    assert oracle.characterize("/m.gif", 1000.0).cpu_ops == pytest.approx(100.0)
    oracle.observe("/m.gif", 1000.0, 6000.0)
    est = oracle.characterize("/other.gif", 1000.0)   # same class (.gif)
    assert est.cpu_ops == pytest.approx(6000.0)


def test_adaptive_ewma_converges():
    oracle = AdaptiveOracle(rules=[OracleRule(pattern="*", ops_per_byte=0.0)],
                            alpha=0.5, min_observations=1)
    for _ in range(20):
        oracle.observe("/a.html", 100.0, 400.0)
    stats = oracle.learned("/a.html")
    assert stats is not None
    assert stats.ops_per_byte == pytest.approx(4.0, rel=1e-6)
    assert stats.observations == 20


def test_adaptive_classes_are_per_extension():
    oracle = AdaptiveOracle(alpha=1.0, min_observations=1)
    oracle.observe("/a.gif", 100.0, 900.0)
    assert oracle.learned("/b.gif") is not None
    assert oracle.learned("/b.html") is None


def test_adaptive_ignores_cgi_and_bad_samples():
    reg = CGIRegistry()
    oracle = AdaptiveOracle(cgi_registry=reg, min_observations=1)
    oracle.observe("/cgi-bin/q", 100.0, 1e6)
    assert oracle.learned("/cgi-bin/q") is None
    oracle.observe("/x.gif", 0.0, 100.0)      # zero-size: ignored
    assert oracle.learned("/x.gif") is None


def test_adaptive_validation():
    with pytest.raises(ValueError):
        AdaptiveOracle(alpha=0.0)
    with pytest.raises(ValueError):
        AdaptiveOracle(min_observations=0)


def test_server_feeds_adaptive_oracle():
    # A cluster built with a badly mis-specified adaptive oracle corrects
    # itself from served requests.
    oracle = AdaptiveOracle(rules=[OracleRule(pattern="*", ops_per_byte=0.01)],
                            alpha=0.5, min_observations=2)
    cluster = SWEBCluster(meiko_cs2(2), policy="sweb", seed=1, oracle=oracle)
    cluster.add_file("/big.gif", 1e6, home=0)
    for _ in range(3):
        cluster.run(until=cluster.fetch("/big.gif"))
    stats = oracle.learned("/big.gif")
    assert stats is not None
    # Learned rate equals the server's true send cost (6 ops/byte).
    assert stats.ops_per_byte == pytest.approx(
        cluster.params.send_ops_per_byte, rel=1e-6)


# ---------------------------------------------------------------- striping
def test_striped_read_uses_all_disks_in_parallel():
    cluster = SWEBCluster(meiko_cs2(4), policy="round-robin", seed=1,
                          start_loadd=False)
    cluster.add_file("/whole.bin", 4e6, home=0)
    cluster.add_striped_file("/striped.bin", 4e6, stripes=[0, 1, 2, 3])

    def read_time(path, node):
        times = []

        def go():
            t0 = cluster.sim.now
            yield from cluster.fs.read(path, at_node=node)
            times.append(cluster.sim.now - t0)

        cluster.sim.spawn(go())
        cluster.run(until=cluster.sim.now + 60.0)
        return times[0]

    t_whole = read_time("/whole.bin", 0)
    # Clear caches so the striped read hits disks too.
    for n in cluster.nodes:
        n.cache.clear()
    t_striped = read_time("/striped.bin", 0)
    # 4-way stripe: disk time cut ~4x (plus a little fabric time).
    assert t_striped < t_whole / 2


def test_striped_file_cached_at_reader():
    cluster = SWEBCluster(meiko_cs2(3), policy="round-robin", seed=1,
                          start_loadd=False)
    cluster.add_striped_file("/s.bin", 3e6, stripes=[0, 1, 2])
    outcomes = []

    def go():
        outcomes.append((yield from cluster.fs.read("/s.bin", at_node=1)))
        outcomes.append((yield from cluster.fs.read("/s.bin", at_node=1)))

    cluster.sim.spawn(go())
    cluster.run(until=60.0)
    assert outcomes[0].source == "disk"
    assert outcomes[1].source == "cache"


def test_striped_locate_reports_primary_home():
    cluster = SWEBCluster(meiko_cs2(3), seed=1, start_loadd=False)
    cluster.add_striped_file("/s.bin", 3e6, stripes=[2, 0])
    meta = cluster.fs.locate("/s.bin")
    assert meta.home == 2
    assert meta.is_striped
    assert meta.stripes == (2, 0)


def test_striped_served_end_to_end():
    cluster = SWEBCluster(meiko_cs2(4), policy="sweb", seed=1)
    cluster.add_striped_file("/map.tif", 4e6, stripes=[0, 1, 2, 3])
    rec = cluster.run(until=cluster.fetch("/map.tif"))
    assert rec.ok
    assert rec.size == 0.0 or rec.status == 200  # served fine


def test_striping_validation():
    cluster = SWEBCluster(meiko_cs2(3), seed=1, start_loadd=False)
    with pytest.raises(ValueError):
        cluster.add_striped_file("/s", 1e6, stripes=[])
    with pytest.raises(ValueError):
        cluster.add_striped_file("/s", 1e6, stripes=[0, 0])
    with pytest.raises(ValueError):
        cluster.add_striped_file("/s", 1e6, stripes=[0, 9])
    with pytest.raises(ValueError):
        cluster.add_striped_file("/s", -1.0, stripes=[0])
    cluster.add_striped_file("/s", 1e6, stripes=[0, 1])
    with pytest.raises(ValueError):
        cluster.add_striped_file("/s", 1e6, stripes=[0, 1])
