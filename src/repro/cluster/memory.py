"""Main-memory file cache.

§4.1 of the paper attributes SWEB's *superlinear* speedup on 1.5 MB files
to aggregate RAM: "the total size of memory in SWEB is much larger than on
a one-node server, and the multi-node server accommodates more requests
within main memory while one-node server spends more time in swapping".

We model each node's RAM as an LRU whole-file cache.  A hit serves the
file at memory-copy bandwidth; a miss goes to the disk channel and then
inserts the file (evicting least-recently-used files until it fits).
Files larger than the cache are never cached, which is the single-node
thrashing regime.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["PageCache"]


class PageCache:
    """LRU whole-file cache with byte-capacity accounting."""

    def __init__(self, capacity_bytes: float, name: str = "cache") -> None:
        if capacity_bytes < 0:
            raise ValueError(f"negative cache capacity: {capacity_bytes}")
        self.name = name
        self.capacity = float(capacity_bytes)
        self._entries: OrderedDict[str, float] = OrderedDict()
        self._used = 0.0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- queries ------------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        return self._used

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def entries(self) -> list[tuple[str, float]]:
        """Resident ``(path, size)`` pairs in LRU order (oldest first).

        The cooperative-cache directory samples this to build its
        bytes·recency hot set; reading it has no side effects on LRU
        order or the hit/miss counters.
        """
        return list(self._entries.items())

    # -- operations -----------------------------------------------------------
    def lookup(self, path: str) -> bool:
        """Check for ``path``; updates LRU order and hit/miss counters."""
        if path in self._entries:
            self._entries.move_to_end(path)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, path: str, size: float) -> bool:
        """Cache ``path`` (evicting LRU entries); False if it can never fit."""
        if size < 0:
            raise ValueError(f"negative file size: {size}")
        if size > self.capacity:
            return False  # un-cacheable: the thrashing regime
        if path in self._entries:
            self._entries.move_to_end(path)
            return True
        while self._used + size > self.capacity and self._entries:
            _victim, vsize = self._entries.popitem(last=False)
            self._used -= vsize
            self.evictions += 1
        self._entries[path] = size
        self._used += size
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0.0

    def __repr__(self) -> str:
        return (f"<PageCache {self.name!r} {self._used / 1e6:.1f}/"
                f"{self.capacity / 1e6:.1f} MB files={len(self._entries)} "
                f"hit_rate={self.hit_rate:.2f}>")
