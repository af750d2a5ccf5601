"""Additional topology tests: custom clusters and build validation."""

import pytest

from repro.cluster import NodeSpec, custom_cluster, meiko_cs2, sun_now
from repro.cluster.topology import ClusterSpec
from repro.sim import Simulator


def test_custom_cluster_heterogeneous_hardware():
    spec = custom_cluster(
        "lab",
        [NodeSpec(cpu_speed=50e6, disk_bandwidth=8e6),
         NodeSpec(cpu_speed=10e6, disk_bandwidth=2e6)],
        network_kind="bus", network_bandwidth=1.25e6, nfs_penalty=0.5)
    built = spec.build(Simulator())
    assert built.nodes[0].cpu_speed == 50e6
    assert built.nodes[1].disk.bandwidth == 2e6
    assert built.fs.remote_penalty == 0.5


def test_unknown_network_kind_rejected():
    spec = ClusterSpec(name="x", nodes=(NodeSpec(),), network_kind="torus")
    with pytest.raises(ValueError):
        spec.build(Simulator())


def test_shared_nic_requires_bus():
    spec = ClusterSpec(name="x", nodes=(NodeSpec(),),
                       network_kind="fat-tree", shared_nic_is_bus=True)
    with pytest.raises(ValueError):
        spec.build(Simulator())


def test_meiko_and_now_have_paper_constants():
    meiko = meiko_cs2()
    assert meiko.nodes[0].disk_bandwidth == pytest.approx(5e6)    # b1
    assert meiko.network_bandwidth == pytest.approx(40e6)         # fat-tree
    assert meiko.nfs_penalty == pytest.approx(0.10)
    now = sun_now()
    assert now.network_bandwidth == pytest.approx(1.25e6)         # 10 Mb/s
    assert now.nfs_penalty == pytest.approx(0.60)
    assert now.nodes[0].ram_bytes == pytest.approx(16e6)
