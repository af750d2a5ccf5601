"""Unit tests for the cooperative-cache subsystem (repro.cache).

Covers the directory (hot-set ranking, TTL staleness, freshest-wins
updates), the heat counters, the replication daemon's planner and copy
machinery, the cache-aware ``t_data`` term, and the replica/peer-cache
read paths in the distributed file system.
"""

import pytest

from repro.cache import (
    CacheDirectory,
    CacheReport,
    FileHeat,
    ReplicationDaemon,
    hot_set,
)
from repro.cluster import meiko_cs2
from repro.core import CostModel, CostParameters, LoadSnapshot, SWEBCluster
from repro.core.oracle import TaskEstimate


# ---------------------------------------------------------------- hot_set
def test_hot_set_ranks_by_bytes_times_recency():
    # LRU order oldest-first: recency rank is the position + 1.
    entries = [("/old-big", 10.0), ("/mid", 6.0), ("/new-small", 4.0)]
    # scores: old-big 10*1=10, mid 6*2=12, new-small 4*3=12 (tie on path)
    assert hot_set(entries, 3) == ("/mid", "/new-small", "/old-big")
    assert hot_set(entries, 2) == ("/mid", "/new-small")
    assert hot_set(entries, 0) == ()
    assert hot_set([], 4) == ()


def test_hot_set_is_deterministic_on_ties():
    entries = [("/b", 5.0), ("/a", 2.5)]  # scores 5 and 5: tie
    assert hot_set(entries, 2) == ("/a", "/b")


# ---------------------------------------------------------------- reports
def test_cache_report_validation():
    with pytest.raises(ValueError):
        CacheReport(node=-1, paths=(), timestamp=0.0)
    with pytest.raises(ValueError):
        CacheReport(node=0, paths=(), timestamp=-1.0)


# -------------------------------------------------------------- directory
def test_directory_keeps_freshest_report_per_node():
    directory = CacheDirectory(owner=0)
    directory.update(CacheReport(node=1, paths=("/a",), timestamp=2.0))
    directory.update(CacheReport(node=1, paths=("/b",), timestamp=1.0))
    # stale one ignored
    assert directory.holds(1, "/a", now=2.0)
    assert not directory.holds(1, "/b", now=2.0)
    directory.update(CacheReport(node=1, paths=("/c",), timestamp=2.0))
    # equal ts: newest wins
    assert directory.holds(1, "/c", now=2.0)
    assert not directory.holds(1, "/a", now=2.0)


def test_directory_holds_respects_ttl():
    directory = CacheDirectory(owner=0, ttl=5.0)
    directory.update(CacheReport(node=1, paths=("/a",), timestamp=10.0))
    assert directory.holds(1, "/a", now=12.0)
    assert directory.holds(1, "/a", now=15.0)
    assert not directory.holds(1, "/a", now=15.1)   # aged out
    assert not directory.holds(1, "/b", now=12.0)   # never advertised
    assert not directory.holds(2, "/a", now=12.0)   # unknown peer


def test_directory_owner_uses_live_probe_not_reports():
    resident = {"/here"}
    directory = CacheDirectory(owner=0, ttl=1.0,
                               local_probe=resident.__contains__)
    # Even an aged-out self-report is irrelevant: the probe is live.
    directory.update(CacheReport(node=0, paths=("/gone",), timestamp=0.0))
    assert directory.holds(0, "/here", now=100.0)
    assert not directory.holds(0, "/gone", now=100.0)


def test_directory_holders_sorted_and_forget():
    directory = CacheDirectory(owner=2, local_probe=lambda p: p == "/a")
    directory.update(CacheReport(node=3, paths=("/a",), timestamp=0.0))
    directory.update(CacheReport(node=1, paths=("/a", "/b"), timestamp=0.0))
    assert directory.holders("/a", now=1.0) == [1, 2, 3]
    assert directory.holders("/b", now=1.0) == [1]
    # A newer report without "/a" takes node 1 out of its holders.
    directory.update(CacheReport(node=1, paths=("/b",), timestamp=0.5))
    assert directory.holders("/a", now=1.0) == [2, 3]
    assert directory.holders("/b", now=1.0) == [1]


def test_directory_rejects_bad_ttl():
    with pytest.raises(ValueError):
        CacheDirectory(owner=0, ttl=0.0)


# -------------------------------------------------------------- file heat
def test_file_heat_counts_and_byte_ranking():
    heat = FileHeat()
    for _ in range(3):
        heat.record("/small", nbytes=100.0)
    heat.record("/big", nbytes=3e6)
    assert heat.total_bytes == pytest.approx(3e6 + 300.0)
    assert heat.mean_bytes() == pytest.approx((3e6 + 300.0) / 2)
    # The small file has more requests; by bytes the big one leads.
    assert heat.top_bytes(2) == [("/big", pytest.approx(3e6)),
                                 ("/small", pytest.approx(300.0))]


def test_file_heat_empty_means_are_zero():
    heat = FileHeat()
    assert heat.mean_bytes() == 0.0
    assert heat.top_bytes(5) == []


# ----------------------------------------------------- replication daemon
def coop_cluster(n=4, **params_kw):
    params = CostParameters(coop_cache=True, replicate=True, **params_kw)
    cluster = SWEBCluster(meiko_cs2(n), params=params, start_loadd=False)
    return cluster


def test_replication_daemon_validation():
    cluster = coop_cluster()
    daemon = cluster.replicator
    with pytest.raises(ValueError):
        ReplicationDaemon(cluster.sim, cluster.nodes, cluster.fs,
                          cluster.network, daemon.heat, period=0.0)
    with pytest.raises(ValueError):
        ReplicationDaemon(cluster.sim, cluster.nodes, cluster.fs,
                          cluster.network, daemon.heat, factor=0)
    with pytest.raises(ValueError):
        ReplicationDaemon(cluster.sim, cluster.nodes, cluster.fs,
                          cluster.network, daemon.heat, skew=0.5)
    with pytest.raises(ValueError):
        ReplicationDaemon(cluster.sim, cluster.nodes, cluster.fs,
                          cluster.network, daemon.heat, max_per_cycle=0)


def test_replicate_flag_requires_coop_cache():
    with pytest.raises(ValueError):
        CostParameters(replicate=True)


def test_plan_skips_files_with_no_cached_copy():
    cluster = coop_cluster(replication_skew=1.0)
    cluster.fs.add_file("/hot", 2e6, home=0)
    daemon = cluster.replicator
    daemon.heat.record("/hot", nbytes=2e6)
    # Hot by bytes, but nobody holds it in RAM yet: copying would cost a
    # disk read on the hot home node, so the planner waits.
    assert daemon.plan() == []
    cluster.nodes[0].cache.insert("/hot", 2e6)
    planned = daemon.plan()
    assert planned
    assert all(path == "/hot" for path, _ in planned)
    assert all(target != 0 for _, target in planned)


def test_plan_tops_up_to_factor_and_is_deterministic():
    cluster = coop_cluster(replication_factor=3, replication_skew=1.0)
    cluster.fs.add_file("/hot", 1e6, home=0)
    cluster.nodes[0].cache.insert("/hot", 1e6)
    cluster.nodes[1].cache.insert("/hot", 1e6)
    daemon = cluster.replicator
    daemon.heat.record("/hot", nbytes=1e6)
    planned = daemon.plan()
    # Two holders already (0 and 1): one more copy, lowest-id idle peer.
    assert planned == [("/hot", 2)]
    assert daemon.plan() == planned  # pure planning: no hidden state


def test_plan_ranks_no_peers_once_hot_files_hold_factor_copies():
    cluster = coop_cluster(replication_factor=2, replication_skew=1.0)
    for i, holders in enumerate([(0, 1), (0, 2, 3)]):
        path = f"/hot{i}"
        cluster.fs.add_file(path, 1e6, home=0)
        for node in holders:
            cluster.nodes[node].cache.insert(path, 1e6)
        cluster.replicator.heat.record(path, nbytes=1e6)
    daemon = cluster.replicator
    calls = []
    rank = daemon._node_load
    daemon._node_load = lambda node: calls.append(node.id) or rank(node)
    # Every hot file is at (or past) its replica target: the cycle plans
    # nothing and never ranks a candidate peer.
    assert daemon.plan() == []
    assert calls == []
    # A hot file one copy short: only its candidate peers are ranked.
    cluster.fs.add_file("/hot2", 1e6, home=0)
    cluster.nodes[0].cache.insert("/hot2", 1e6)
    daemon.heat.record("/hot2", nbytes=1e6)
    assert daemon.plan() == [("/hot2", 1)]
    assert sorted(calls) == [1, 2, 3]


def test_replicate_lands_copy_and_counts_traffic():
    cluster = coop_cluster()
    cluster.fs.add_file("/hot", 2e6, home=0)
    cluster.nodes[0].cache.insert("/hot", 2e6)
    daemon = cluster.replicator
    done = daemon.replicate("/hot", 2)
    cluster.sim.run(until=done)
    assert "/hot" in cluster.nodes[2].cache
    assert daemon.replications == 1
    assert daemon.bytes_replicated == pytest.approx(2e6)


def test_replication_daemon_runs_end_to_end():
    cluster = coop_cluster(replication_period=0.5, replication_skew=1.0,
                           replication_max_per_cycle=8)
    cluster.fs.add_file("/hot", 2e6, home=0)
    cluster.fs.add_file("/cold", 1e3, home=1)
    cluster.nodes[0].cache.insert("/hot", 2e6)
    daemon = cluster.replicator
    for _ in range(4):
        daemon.heat.record("/hot", nbytes=2e6)
    daemon.heat.record("/cold", nbytes=1e3)
    daemon.start()
    cluster.sim.run(until=5.0)
    assert daemon.cycles >= 8
    assert daemon.replications >= 1
    holders = [n.id for n in cluster.nodes if "/hot" in n.cache]
    assert len(holders) >= 2
    # The cold file never crossed the skew threshold.
    assert all("/cold" not in n.cache or n.id == 1 for n in cluster.nodes)


# ------------------------------------------------------ cache-aware costs
def _snap(node=1):
    return LoadSnapshot(node=node, cpu_load=0.0, disk_load=0.0,
                        net_load=0.0, cpu_speed=40e6, disk_bandwidth=5e6,
                        timestamp=0.0)


def test_t_data_uses_memory_bandwidth_when_cached():
    model = CostModel(CostParameters(coop_cache=True), mem_bandwidth=40e6)
    est = TaskEstimate(cpu_ops=0.0, disk_bytes=1e6, output_bytes=1e6)
    candidate, home = _snap(1), _snap(0)
    baseline = model.t_data(est, candidate, home, file_home=0)
    cached = model.t_data(est, candidate, home, file_home=0, cached=True)
    assert cached < baseline
    assert cached == pytest.approx(1e6 / 40e6)


def test_t_data_knockout_ignores_cached_flag():
    model = CostModel(CostParameters(coop_cache=True, use_cache_term=False),
                      mem_bandwidth=40e6)
    est = TaskEstimate(cpu_ops=0.0, disk_bytes=1e6, output_bytes=1e6)
    candidate, home = _snap(1), _snap(0)
    plainest = model.t_data(est, candidate, home, file_home=0)
    knocked = model.t_data(est, candidate, home, file_home=0, cached=True)
    assert knocked == plainest


# -------------------------------------------------------- fs replica reads
def test_remote_read_served_by_readers_replica():
    cluster = coop_cluster()
    cluster.fs.add_file("/doc", 1e6, home=0)
    cluster.nodes[2].cache.insert("/doc", 1e6)  # planted replica
    done = cluster.sim.spawn(cluster.fs.read("/doc", at_node=2))
    cluster.sim.run(until=done)
    outcome = done.value
    assert outcome.source == "cache"
    assert outcome.remote is False
    assert cluster.fs.replica_reads == 1
    assert cluster.nodes[0].disk.reads == 0


def test_home_cache_miss_served_from_peer_replica():
    cluster = coop_cluster()
    cluster.fs.add_file("/doc", 1e6, home=0)
    cluster.nodes[3].cache.insert("/doc", 1e6)  # replica elsewhere
    done = cluster.sim.spawn(cluster.fs.read("/doc", at_node=1))
    cluster.sim.run(until=done)
    outcome = done.value
    assert outcome.source == "cache"
    assert outcome.remote is True
    assert cluster.fs.peer_cache_reads == 1
    assert cluster.nodes[0].disk.reads == 0  # home disk untouched


def test_read_without_any_cached_copy_hits_home_disk():
    cluster = coop_cluster()
    cluster.fs.add_file("/doc", 1e6, home=0)
    done = cluster.sim.spawn(cluster.fs.read("/doc", at_node=1))
    cluster.sim.run(until=done)
    assert done.value.source == "disk"
    assert cluster.fs.peer_cache_reads == 0
    assert cluster.nodes[0].disk.reads == 1
