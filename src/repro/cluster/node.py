"""A processing node of the multicomputer.

One node = one CPU (processor-sharing over "operations"), its RAM page
cache, a dedicated disk, a NIC for Internet traffic, and a port on the
cluster interconnect.  CPU work is charged per *category* so the §4.3
overhead analysis (parsing vs. scheduling vs. load monitoring) falls out
of the accounting for free.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim import Event, FairShareServer, Simulator
from .disk import Disk
from .memory import PageCache

__all__ = ["Node"]


class Node:
    """One processing unit of the SWEB multicomputer.

    Parameters
    ----------
    sim:
        The owning simulator.
    node_id:
        Index within the cluster (also its interconnect port number).
    cpu_speed:
        CPU service rate in operations/second (a 40 MHz SuperSparc is
        modelled as 40e6 ops/s).
    ram_bytes:
        Page-cache capacity (32 MB on the Meiko nodes, 16 MB on the LXs).
    disk:
        The node's dedicated drive.
    mem_bandwidth:
        Memory-copy bandwidth for cache hits, bytes/s.
    nic_bandwidth:
        Socket/TCP bandwidth available for Internet responses, bytes/s
        (the paper measured only 5–15 % of the Meiko's 40 MB/s peak
        through the sockets library).
    """

    def __init__(self, sim: Simulator, node_id: int, cpu_speed: float,
                 ram_bytes: float, disk: Disk, mem_bandwidth: float = 80e6,
                 nic_bandwidth: float = 6e6, name: Optional[str] = None,
                 nic_server: Optional[FairShareServer] = None) -> None:
        if cpu_speed <= 0:
            raise ValueError(f"cpu_speed must be > 0, got {cpu_speed}")
        if ram_bytes < 0:
            raise ValueError(f"negative ram_bytes: {ram_bytes}")
        self.sim = sim
        self.id = int(node_id)
        self.name = name or f"node{node_id}"
        self.cpu_speed = float(cpu_speed)
        self.cpu = FairShareServer(sim, rate=cpu_speed, name=f"{self.name}.cpu")
        self.disk = disk
        self.cache = PageCache(ram_bytes, name=f"{self.name}.cache")
        self.mem = FairShareServer(sim, rate=mem_bandwidth, name=f"{self.name}.mem")
        # On a shared-Ethernet NOW the "NIC" is the bus itself: all nodes'
        # client traffic and NFS traffic compete on one medium, so the
        # topology may inject a shared server here.
        self.nic = nic_server or FairShareServer(
            sim, rate=nic_bandwidth, name=f"{self.name}.nic")
        self.alive = True
        #: True after crash(): unlike a graceful leave(), a crash also
        #: resets in-flight connections (see HTTPServer.reset_connections)
        self.crashed = False
        #: operations charged per category (parsing, scheduling, loadd, ...)
        self.cpu_ops_by_category: dict[str, float] = {}

    # -- CPU ----------------------------------------------------------------
    def compute(self, ops: float, category: str = "other", tag: Any = None) -> Event:
        """Charge ``ops`` operations to the CPU; fires when serviced."""
        if ops < 0:
            raise ValueError(f"negative ops: {ops}")
        self.cpu_ops_by_category[category] = (
            self.cpu_ops_by_category.get(category, 0.0) + ops)
        return self.cpu.submit(ops, tag=tag or category)

    def cpu_load(self) -> float:
        """Instantaneous run-queue length (jobs in service)."""
        return float(self.cpu.njobs)

    def cpu_seconds_by_category(self) -> dict[str, float]:
        """CPU time (s) consumed per category, at this node's speed."""
        return {cat: ops / self.cpu_speed
                for cat, ops in self.cpu_ops_by_category.items()}

    # -- memory -----------------------------------------------------------
    def read_from_cache(self, nbytes: float, tag: Any = None) -> Event:
        """Serve a page-cache hit at memory-copy bandwidth."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        return self.mem.submit(nbytes, tag=tag)

    # -- membership -----------------------------------------------------------
    def leave(self) -> None:
        """Withdraw from the resource pool (in-flight work still drains)."""
        self.alive = False

    def join(self) -> None:
        """Rejoin the resource pool."""
        self.alive = True
        self.crashed = False

    def crash(self) -> None:
        """Die abruptly: refuse new connections AND abandon in-flight work.

        A graceful :meth:`leave` drains; a crash does not — the httpd
        layer resets live connections so clients see the failure quickly
        (modelled as an immediate 503/connection-reset, not a silent
        120 s timeout).
        """
        self.alive = False
        self.crashed = True

    def restart(self) -> None:
        """Come back after a crash (cold: the page cache survives only
        because the model keeps no dirty state; membership-wise this is
        identical to join())."""
        self.join()

    def __repr__(self) -> str:
        return (f"<Node {self.name!r} cpu={self.cpu_speed / 1e6:.0f}Mops "
                f"alive={self.alive} load={self.cpu.njobs}>")
