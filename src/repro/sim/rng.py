"""Deterministic named random substreams.

Every stochastic component of the simulation draws from its own named
substream derived from a single root seed, so adding a new source of
randomness never perturbs existing ones and every experiment is exactly
replayable.
"""

from __future__ import annotations

import zlib
from typing import Any, Optional, Sequence

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A registry of independent ``numpy.random.Generator`` substreams.

    Streams are keyed by name; the substream seed is derived from the root
    seed and a stable hash of the name (crc32), so the mapping is identical
    across processes and Python versions.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._zipf_cache: dict[tuple[int, float], np.ndarray] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the substream called ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, key]))
            self._streams[name] = gen
        return gen

    # Convenience draws -----------------------------------------------------
    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.stream(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        return float(self.stream(name).exponential(mean))

    def integers(self, name: str, low: int, high: int) -> int:
        return int(self.stream(name).integers(low, high))

    def choice(self, name: str, seq: Sequence[Any],
               p: Optional[Sequence[float]] = None) -> Any:
        idx = self.stream(name).choice(len(seq), p=p)
        return seq[int(idx)]

    def zipf_index(self, name: str, n: int, alpha: float = 1.0) -> int:
        """Draw an index in [0, n) with Zipf(alpha) popularity."""
        if n <= 0:
            raise ValueError("n must be positive")
        key = (n, float(alpha))
        weights = self._zipf_cache.get(key)
        if weights is None:
            ranks = np.arange(1, n + 1, dtype=float)
            weights = ranks ** (-alpha)
            weights /= weights.sum()
            self._zipf_cache[key] = weights
        return int(self.stream(name).choice(n, p=weights))

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} streams={sorted(self._streams)}>"
