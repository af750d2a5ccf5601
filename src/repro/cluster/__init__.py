"""Multicomputer substrate: nodes, disks, memory, networks, file system.

This package models the hardware the paper ran on — the Meiko CS-2 and a
Sun NOW — at the fidelity the evaluation needs: fair-share CPUs and disk
channels, a fat-tree vs. a shared Ethernet, NFS cross-mounts with the
measured remote penalties, per-node page caches, and WAN paths to clients.
"""

from .disk import Disk
from .filesystem import DistributedFileSystem, FileMeta, ReadOutcome
from .memory import PageCache
from .network import (
    ClusterNetwork,
    FatTreeNetwork,
    Internet,
    Link,
    SharedBusNetwork,
    WANPath,
)
from .node import Node
from .topology import (
    BuiltCluster,
    ClusterSpec,
    NodeSpec,
    TESTBEDS,
    custom_cluster,
    heterogeneous_meiko,
    heterogeneous_now,
    meiko_cs2,
    sun_now,
)

__all__ = [
    "BuiltCluster",
    "ClusterNetwork",
    "ClusterSpec",
    "Disk",
    "DistributedFileSystem",
    "FatTreeNetwork",
    "FileMeta",
    "Internet",
    "Link",
    "Node",
    "NodeSpec",
    "PageCache",
    "ReadOutcome",
    "SharedBusNetwork",
    "TESTBEDS",
    "WANPath",
    "custom_cluster",
    "heterogeneous_meiko",
    "heterogeneous_now",
    "meiko_cs2",
    "sun_now",
]
