"""Per-file request heat counters for skew detection.

The replication daemon needs to know *which* documents are hot before it
can spread them: :class:`FileHeat` is the shared tally the HTTP servers
feed on every fulfilled request.  It is deliberately simple — monotone
counters, no decay — because the experiments run over minutes of
simulated time where the Zipf hot set is stationary; a production system
would swap in a sliding window here without touching the consumers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["FileHeat"]


class FileHeat:
    """Monotone per-file served-byte counters shared by a cluster's servers."""

    def __init__(self) -> None:
        self._bytes: Dict[str, float] = {}

    def record(self, path: str, nbytes: float = 0.0) -> None:
        """Add one served request's ``nbytes`` body bytes to ``path``."""
        self._bytes[path] = self._bytes.get(path, 0.0) + nbytes

    @property
    def total_bytes(self) -> float:
        """Body bytes served across all recorded requests."""
        return sum(self._bytes.values())

    def mean_bytes(self) -> float:
        """Average served bytes over all files seen at least once."""
        if not self._bytes:
            return 0.0
        return self.total_bytes / len(self._bytes)

    def top_bytes(self, n: int) -> List[Tuple[str, float]]:
        """The ``n`` paths with the most served bytes, deterministically.

        Byte volume, not request count, is what loads a disk: a 3 MB
        document requested 5 times outweighs a 100 KB page requested 50
        times.  The replication daemon plans from this ranking.
        """
        ranked = sorted(self._bytes.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:max(n, 0)]
