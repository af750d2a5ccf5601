"""Unit tests for Node, DistributedFileSystem and topology presets."""

import pytest

from repro.cluster import (
    DistributedFileSystem,
    FatTreeNetwork,
    Node,
    Disk,
    heterogeneous_now,
    meiko_cs2,
    sun_now,
)
from repro.sim import Simulator


def build_two_nodes(sim, disk_bw=5e6, net_bw=40e6, penalty=0.10):
    nodes = []
    for i in range(2):
        disk = Disk(sim, bandwidth=disk_bw, name=f"d{i}")
        nodes.append(Node(sim, i, cpu_speed=40e6, ram_bytes=32e6, disk=disk))
    net = FatTreeNetwork(sim, 2, bandwidth=net_bw, latency=0.0)
    fs = DistributedFileSystem(sim, nodes, net, remote_penalty=penalty)
    return nodes, net, fs


# --------------------------------------------------------------------- Node
def test_compute_charges_cpu_and_categories():
    sim = Simulator()
    disk = Disk(sim, bandwidth=5e6)
    node = Node(sim, 0, cpu_speed=40e6, ram_bytes=32e6, disk=disk)
    log = []

    def go():
        yield node.compute(2.8e6, category="preprocess")  # 70 ms at 40 Mops
        log.append(sim.now)

    sim.spawn(go())
    sim.run()
    assert log == [pytest.approx(0.07)]
    assert node.cpu_ops_by_category == {"preprocess": pytest.approx(2.8e6)}
    assert node.cpu_seconds_by_category() == {"preprocess": pytest.approx(0.07)}


def test_cpu_load_reflects_concurrency():
    sim = Simulator()
    disk = Disk(sim, bandwidth=5e6)
    node = Node(sim, 0, cpu_speed=1e6, ram_bytes=0, disk=disk)
    node.compute(1e6)
    node.compute(1e6)
    assert node.cpu_load() == 2.0


def test_node_leave_join():
    sim = Simulator()
    disk = Disk(sim, bandwidth=5e6)
    node = Node(sim, 0, cpu_speed=1e6, ram_bytes=0, disk=disk)
    assert node.alive
    node.leave()
    assert not node.alive
    node.join()
    assert node.alive


def test_node_validation():
    sim = Simulator()
    disk = Disk(sim, bandwidth=5e6)
    with pytest.raises(ValueError):
        Node(sim, 0, cpu_speed=0.0, ram_bytes=1.0, disk=disk)
    node = Node(sim, 0, cpu_speed=1.0, ram_bytes=1.0, disk=disk)
    with pytest.raises(ValueError):
        node.compute(-1.0)


# ------------------------------------------------------------------- DFS
def test_local_read_miss_then_hit_is_faster():
    sim = Simulator()
    nodes, _net, fs = build_two_nodes(sim)
    fs.add_file("/doc", 1.5e6, home=0)
    times = []

    def go():
        t0 = sim.now
        outcome = yield from fs.read("/doc", at_node=0)
        times.append((sim.now - t0, outcome.source, outcome.remote))
        t1 = sim.now
        outcome = yield from fs.read("/doc", at_node=0)
        times.append((sim.now - t1, outcome.source, outcome.remote))

    sim.spawn(go())
    sim.run()
    (t_miss, src1, rem1), (t_hit, src2, rem2) = times
    assert src1 == "disk" and src2 == "cache"
    assert not rem1 and not rem2
    assert t_miss == pytest.approx(0.3)          # 1.5 MB at 5 MB/s
    assert t_hit < t_miss / 5                    # memory ≫ disk


def test_remote_read_pays_nfs_penalty():
    sim = Simulator()
    nodes, _net, fs = build_two_nodes(sim, disk_bw=5e6, net_bw=40e6, penalty=0.10)
    fs.add_file("/doc", 1.5e6, home=0)
    times = []

    def go():
        t0 = sim.now
        outcome = yield from fs.read("/doc", at_node=1)
        times.append((sim.now - t0, outcome))

    sim.spawn(go())
    sim.run()
    elapsed, outcome = times[0]
    assert outcome.remote and outcome.home == 0
    # disk 0.3 s + wire 1.65 MB at 40 MB/s ≈ 0.041 s
    assert elapsed == pytest.approx(0.3 + 1.65e6 / 40e6, rel=1e-3)


def test_remote_read_served_from_home_cache():
    sim = Simulator()
    nodes, _net, fs = build_two_nodes(sim)
    fs.add_file("/doc", 1.5e6, home=0)
    outcomes = []

    def go():
        outcomes.append((yield from fs.read("/doc", at_node=0)))   # warm home cache
        outcomes.append((yield from fs.read("/doc", at_node=1)))   # remote, cached

    sim.spawn(go())
    sim.run()
    assert outcomes[1].source == "cache" and outcomes[1].remote


def test_missing_file_raises():
    sim = Simulator()
    _nodes, _net, fs = build_two_nodes(sim)
    with pytest.raises(FileNotFoundError):
        fs.locate("/nope")
    assert not fs.exists("/nope")


def test_duplicate_and_invalid_files_rejected():
    sim = Simulator()
    _nodes, _net, fs = build_two_nodes(sim)
    fs.add_file("/a", 100.0, home=0)
    with pytest.raises(ValueError):
        fs.add_file("/a", 100.0, home=1)
    with pytest.raises(ValueError):
        fs.add_file("/b", -1.0, home=0)
    with pytest.raises(ValueError):
        fs.add_file("/c", 1.0, home=9)


def test_read_counters():
    sim = Simulator()
    _nodes, _net, fs = build_two_nodes(sim)
    fs.add_file("/a", 10.0, home=0)

    def go():
        yield from fs.read("/a", at_node=0)
        yield from fs.read("/a", at_node=1)

    sim.spawn(go())
    sim.run()
    assert fs.local_reads == 1 and fs.remote_reads == 1


# --------------------------------------------------------------- topologies
def test_meiko_preset_shape():
    spec = meiko_cs2()
    assert spec.num_nodes == 6
    assert spec.network_kind == "fat-tree"
    assert spec.nfs_penalty == pytest.approx(0.10)
    built = spec.build(Simulator())
    assert len(built.nodes) == 6
    assert built.nodes[0].cache.capacity == pytest.approx(32e6)
    # Per-node NICs on the Meiko are distinct objects.
    assert built.nodes[0].nic is not built.nodes[1].nic


def test_now_preset_shares_bus_as_nic():
    built = sun_now().build(Simulator())
    assert len(built.nodes) == 4
    # Ethernet: every node's NIC *is* the bus.
    assert built.nodes[0].nic is built.nodes[1].nic
    assert built.nodes[0].nic is built.network.bus


def test_heterogeneous_now_speeds():
    spec = heterogeneous_now([40e6, 10e6])
    assert [ns.cpu_speed for ns in spec.nodes] == [40e6, 10e6]
    built = spec.build(Simulator())
    assert built.nodes[0].cpu_speed == 40e6
    assert built.nodes[1].cpu_speed == 10e6
