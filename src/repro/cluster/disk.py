"""Disk model.

Each SWEB node owns a dedicated drive (1 GB on the Meiko CS-2, 525 MB on
the SparcStation LX NOW).  The drive is a fair-share bandwidth station:
concurrent reads split the channel, which is exactly the "disk channel
load" the paper's cost model measures (`load_1` in the t_data term).
"""

from __future__ import annotations

from typing import Any

from ..sim import Event, FairShareServer, Simulator

__all__ = ["Disk"]


class Disk:
    """A single disk drive with a shared-bandwidth channel.

    Parameters
    ----------
    sim:
        The owning simulator.
    bandwidth:
        Sequential read bandwidth in bytes/second (the paper's ``b_disk``;
        5 MB/s in the §3.3 worked example).
    capacity:
        Drive capacity in bytes (only used for placement sanity checks).
    name:
        Label for traces.
    """

    def __init__(self, sim: Simulator, bandwidth: float,
                 capacity: float = 1e9, name: str = "disk") -> None:
        if bandwidth <= 0:
            raise ValueError(f"disk bandwidth must be > 0, got {bandwidth}")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.capacity = float(capacity)
        self.used_bytes = 0.0
        self.server = FairShareServer(sim, rate=bandwidth, name=f"{name}.channel")
        self.bytes_read = 0.0
        self.reads = 0
        #: > 1 while the drive is degraded (fault injection); the nominal
        #: ``bandwidth`` is what loadd keeps advertising — a sick disk
        #: does not know it is sick, so brokers misprice it
        self.degrade_factor = 1.0

    # -- I/O -------------------------------------------------------------
    def read(self, nbytes: float, tag: Any = None) -> Event:
        """Start reading ``nbytes``; the returned event fires on completion."""
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        self.bytes_read += nbytes
        self.reads += 1
        return self.server.submit(nbytes, tag=tag)

    def allocate(self, nbytes: float) -> None:
        """Account for a stored file (placement-time bookkeeping)."""
        if self.used_bytes + nbytes > self.capacity:
            raise ValueError(
                f"{self.name}: allocating {nbytes:.0f} B exceeds capacity "
                f"({self.used_bytes:.0f}/{self.capacity:.0f} B used)")
        self.used_bytes += nbytes

    # -- fault injection -----------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Slow the channel to ``bandwidth / factor`` (a failing drive,
        a RAID rebuild, bad-sector retries).  In-flight reads slow down
        immediately; the advertised ``bandwidth`` is unchanged."""
        if factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1, got {factor}")
        self.degrade_factor = float(factor)
        self.server.set_rate(self.bandwidth / self.degrade_factor)

    def restore(self) -> None:
        """End a degradation: the channel serves at nominal rate again."""
        self.degrade_factor = 1.0
        self.server.set_rate(self.bandwidth)

    # -- load metrics (read by loadd) --------------------------------------
    @property
    def channel_load(self) -> int:
        """Number of in-flight reads (the paper's disk-channel load)."""
        return self.server.njobs

    def __repr__(self) -> str:
        return (f"<Disk {self.name!r} bw={self.bandwidth / 1e6:.1f}MB/s "
                f"inflight={self.channel_load}>")
