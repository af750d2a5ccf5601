"""Cluster-wide cache directory built from piggybacked loadd reports.

Each node periodically summarises its :class:`~repro.cluster.memory.PageCache`
as a :class:`CacheReport` — the top-K resident files ranked by
bytes·recency (:func:`hot_set`) — and the load daemon ships that report
inside its existing broadcast.  Every node keeps a :class:`CacheDirectory`
mapping peer → last report; the broker consults it when pricing ``t_data``
for a candidate.  Reports age out after a TTL, so a muted, partitioned or
crashed peer silently drops out of the directory just as it drops out of
the load view — a stale "node X has the file" entry can only mislead the
broker for one TTL window, after which the directory falls back to the
pessimistic disk/NFS estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["CacheReport", "CacheDirectory", "hot_set"]


def hot_set(entries: Iterable[Tuple[str, float]], k: int) -> Tuple[str, ...]:
    """Top-``k`` cached paths ranked by bytes·recency.

    ``entries`` is the cache's resident set in LRU order (oldest first,
    as produced by :meth:`repro.cluster.memory.PageCache.entries`).  The
    score of an entry is its size multiplied by its 1-based recency rank,
    so a recently touched large file beats a long-idle one of equal size.
    Ties break on path so the result is deterministic regardless of
    insertion history.
    """
    ranked = [(size * (rank + 1), path)
              for rank, (path, size) in enumerate(entries)]
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return tuple(path for _, path in ranked[:max(k, 0)])


@dataclass(frozen=True)
class CacheReport:
    """One node's advertised hot cached-file set at a point in time."""

    node: int
    paths: Tuple[str, ...]
    timestamp: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node must be >= 0")
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")


class CacheDirectory:
    """One node's view of which files its peers hold in RAM.

    The owner's own residency is answered from a live ``local_probe``
    callback (the broker always knows its own cache exactly); peer
    residency comes from the freshest :class:`CacheReport` received and
    is trusted only for ``ttl`` seconds past its timestamp.
    """

    def __init__(self, owner: int, ttl: float = 8.0,
                 local_probe: Optional[Callable[[str], bool]] = None) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.owner = owner
        self.ttl = ttl
        self.local_probe = local_probe
        self._reports: Dict[int, CacheReport] = {}
        self.updates = 0

    def update(self, report: CacheReport) -> None:
        """Install a peer's report, keeping only the freshest per node."""
        current = self._reports.get(report.node)
        if current is None or report.timestamp >= current.timestamp:
            self._reports[report.node] = report
            self.updates += 1

    def holds(self, node: int, path: str, now: float) -> bool:
        """Does the directory believe ``node`` has ``path`` in RAM *now*?"""
        if node == self.owner and self.local_probe is not None:
            return self.local_probe(path)
        report = self._reports.get(node)
        if report is None or now - report.timestamp > self.ttl:
            return False
        return path in report.paths

    def holders(self, path: str, now: float) -> List[int]:
        """Every node currently believed to hold ``path``, sorted by id."""
        out = [node for node in sorted(self._reports)
               if self.holds(node, path, now)]
        if (self.local_probe is not None and self.owner not in out
                and self.local_probe(path)):
            out.append(self.owner)
            out.sort()
        return out
