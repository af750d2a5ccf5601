"""Cluster topologies: the paper's two testbeds plus custom builders.

All hardware constants come from the paper's text:

* **Meiko CS-2** — six nodes, each a 40 MHz SuperSparc (modelled as
  40e6 ops/s) with 32 MB RAM and a dedicated 1 GB drive at ``b1`` = 5 MB/s
  (the §3.3 worked example); a modified fat-tree at 40 MB/s peak, but
  sockets over TCP/IP reach only 5–15 % of that (we use 10 % → 4 MB/s
  socket paths, while kernel-level NFS uses the fast fabric); remote NFS
  penalty ≈ 10 %.
* **Sun NOW** — four SparcStation LXs (50 MHz microSPARC ≈ 25e6 ops/s)
  with 16 MB RAM, a local 525 MB drive, on a shared 10 Mb/s Ethernet whose
  effective bandwidth is reduced because the segment is shared with other
  UCSB machines; remote NFS penalty 50–70 % (we use 60 %).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..sched import SpeedFactors
from ..sim import Simulator
from .disk import Disk
from .filesystem import DistributedFileSystem
from .network import (
    ClusterNetwork,
    FatTreeNetwork,
    Internet,
    SharedBusNetwork,
)
from .node import Node

__all__ = ["NodeSpec", "ClusterSpec", "BuiltCluster", "TESTBEDS", "meiko_cs2",
           "sun_now", "custom_cluster", "heterogeneous_now",
           "heterogeneous_meiko"]

MB = 1e6


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one node."""

    cpu_speed: float = 40e6          # operations / second
    ram_bytes: float = 32 * MB       # page-cache capacity
    disk_bandwidth: float = 5 * MB   # b_disk (b1 in §3.3)
    disk_capacity: float = 1000 * MB
    nic_bandwidth: float = 4 * MB    # socket bandwidth toward the Internet
    mem_bandwidth: float = 40 * MB   # page-cache copy bandwidth


@dataclass(frozen=True)
class ClusterSpec:
    """Full description of a testbed."""

    name: str
    nodes: tuple[NodeSpec, ...]
    network_kind: str = "fat-tree"        # "fat-tree" | "bus"
    network_bandwidth: float = 40 * MB    # fabric port / bus raw bandwidth
    network_latency: float = 10e-6
    network_background_load: float = 0.0  # fraction of a bus consumed by others
    nfs_penalty: float = 0.10             # extra bytes on remote reads
    shared_nic_is_bus: bool = False       # NOW: client traffic rides the bus too

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def with_speed_factors(self, factors: SpeedFactors) -> "ClusterSpec":
        """Scale per-node hardware by dimensionless speed factors.

        ``factors.cpu`` multiplies CPU ops/s, ``factors.disk`` multiplies
        disk bandwidth, and ``factors.mem`` multiplies the page-cache copy
        bandwidth — the same heterogeneity model the fluid scenario's
        ``cpu_factors``/``disk_factors``/``mem_factors`` apply to analytic
        service times (docs/SCHEDULING.md).
        """
        if factors.num_nodes != self.num_nodes:
            raise ValueError(
                f"{self.name!r} has {self.num_nodes} nodes but factors "
                f"describe {factors.num_nodes}")
        nodes = tuple(
            replace(ns, cpu_speed=ns.cpu_speed * fc,
                    disk_bandwidth=ns.disk_bandwidth * fd,
                    mem_bandwidth=ns.mem_bandwidth * fm)
            for ns, fc, fd, fm in zip(self.nodes, factors.cpu, factors.disk,
                                      factors.mem))
        return replace(self, nodes=nodes)

    def build(self, sim: Simulator) -> "BuiltCluster":
        """Instantiate the testbed inside ``sim``."""
        n = len(self.nodes)
        if self.network_kind == "fat-tree":
            network: ClusterNetwork = FatTreeNetwork(
                sim, n, bandwidth=self.network_bandwidth,
                latency=self.network_latency, name=f"{self.name}.net")
        elif self.network_kind == "bus":
            network = SharedBusNetwork(
                sim, bandwidth=self.network_bandwidth,
                latency=self.network_latency,
                background_load=self.network_background_load,
                name=f"{self.name}.net")
        else:
            raise ValueError(f"unknown network kind {self.network_kind!r}")

        shared_nic = None
        if self.shared_nic_is_bus:
            if not isinstance(network, SharedBusNetwork):
                raise ValueError("shared_nic_is_bus requires a bus network")
            shared_nic = network.bus

        nodes = []
        for i, ns in enumerate(self.nodes):
            disk = Disk(sim, bandwidth=ns.disk_bandwidth,
                        capacity=ns.disk_capacity, name=f"{self.name}.disk{i}")
            nodes.append(Node(
                sim, i, cpu_speed=ns.cpu_speed, ram_bytes=ns.ram_bytes,
                disk=disk, mem_bandwidth=ns.mem_bandwidth,
                nic_bandwidth=ns.nic_bandwidth,
                name=f"{self.name}.node{i}", nic_server=shared_nic))
        fs = DistributedFileSystem(sim, nodes, network,
                                   remote_penalty=self.nfs_penalty)
        return BuiltCluster(sim=sim, spec=self, nodes=nodes, network=network,
                            fs=fs, internet=Internet(sim))


@dataclass
class BuiltCluster:
    """A live testbed: simulator plus all hardware objects."""

    sim: Simulator
    spec: ClusterSpec
    nodes: list[Node]
    network: ClusterNetwork
    fs: DistributedFileSystem
    internet: Internet

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


# --------------------------------------------------------------------------
# Presets
# --------------------------------------------------------------------------
def meiko_cs2(n: int = 6) -> ClusterSpec:
    """The primary testbed: ``n`` Meiko CS-2 nodes (paper uses six)."""
    node = NodeSpec(cpu_speed=40e6, ram_bytes=32 * MB, disk_bandwidth=5 * MB,
                    disk_capacity=1000 * MB, nic_bandwidth=4 * MB,
                    mem_bandwidth=40 * MB)
    return ClusterSpec(
        name="meiko",
        nodes=tuple(node for _ in range(n)),
        network_kind="fat-tree",
        network_bandwidth=40 * MB,   # Elan fat-tree peak; NFS rides this
        network_latency=10e-6,
        nfs_penalty=0.10,
    )


def sun_now(n: int = 4) -> ClusterSpec:
    """The secondary testbed: ``n`` SparcStation LXs on shared Ethernet."""
    node = NodeSpec(cpu_speed=25e6, ram_bytes=16 * MB, disk_bandwidth=3 * MB,
                    disk_capacity=525 * MB, nic_bandwidth=1.25 * MB,
                    mem_bandwidth=30 * MB)
    return ClusterSpec(
        name="now",
        nodes=tuple(node for _ in range(n)),
        network_kind="bus",
        network_bandwidth=1.25 * MB,        # 10 Mb/s Ethernet
        network_latency=0.5e-3,
        network_background_load=0.30,       # segment shared with campus
        nfs_penalty=0.60,                   # paper: +50–70 % on Ethernet
        shared_nic_is_bus=True,
    )


def custom_cluster(name: str, node_specs: list[NodeSpec],
                   network_kind: str = "fat-tree",
                   network_bandwidth: float = 40 * MB,
                   nfs_penalty: float = 0.10,
                   **kwargs) -> ClusterSpec:
    """Arbitrary (possibly heterogeneous) testbed."""
    return ClusterSpec(name=name, nodes=tuple(node_specs),
                       network_kind=network_kind,
                       network_bandwidth=network_bandwidth,
                       nfs_penalty=nfs_penalty, **kwargs)


#: the unequal CPUs (ops/s) of the default heterogeneous NOW
_HETNOW_SPEEDS = (40e6, 25e6, 25e6, 10e6)


def heterogeneous_now(speeds: Optional[list[float]] = None) -> ClusterSpec:
    """A NOW with unequal CPUs — the environment §1 motivates SWEB for."""
    speeds = speeds or list(_HETNOW_SPEEDS)
    base = sun_now(len(speeds))
    nodes = tuple(replace(ns, cpu_speed=sp)
                  for ns, sp in zip(base.nodes, speeds))
    return replace(base, name="hetnow", nodes=nodes)


def heterogeneous_meiko(n: int = 6,
                        factors: Optional[SpeedFactors] = None) -> ClusterSpec:
    """The tournament's heterogeneous testbed: a mixed-generation Meiko.

    The homogeneous :func:`meiko_cs2` hardware scaled by
    :data:`repro.sched.MIXED_GENERATION` speed factors (aggregate CPU
    equals the homogeneous cluster's, so the comparison is capacity-fair).
    """
    from ..sched import MIXED_GENERATION
    factors = factors or MIXED_GENERATION.take(n)
    spec = meiko_cs2(n).with_speed_factors(factors)
    return replace(spec, name="hetmeiko")


def _hetnow(n: int = 4) -> ClusterSpec:
    """``n`` NOW nodes cycling through the heterogeneous NOW's speeds."""
    return heterogeneous_now([_HETNOW_SPEEDS[i % len(_HETNOW_SPEEDS)]
                              for i in range(n)])


#: testbed name -> builder(n) (each with its own default node count): the
#: one table config files and ``sweb-repro serve --testbed`` name from
TESTBEDS: dict[str, Callable[..., ClusterSpec]] = {
    "meiko": meiko_cs2,
    "now": sun_now,
    "hetmeiko": heterogeneous_meiko,
    "hetnow": _hetnow,
}
