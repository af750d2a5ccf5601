"""Deterministic named random substreams.

Every stochastic component of the simulation draws from its own named
substream derived from a single root seed, so adding a new source of
randomness never perturbs existing ones and every experiment is exactly
replayable.

The draw helpers return exactly what the matching ``numpy`` call returns
and leave each stream at the same position.  Where numpy's draw is a
plain function of one ``random()`` double, the helper computes it
directly: ``uniform`` is ``low + (high - low) * u``, and ``zipf_index``
is ``bisect_right(cdf, u)`` over the table numpy's weighted ``choice``
builds (``c = p.cumsum(); c /= c[-1]``), kept once per ``(n, alpha)``
instead of being validated and summed again on every draw.  A table is
kept only after numpy's own ``choice`` accepted its weights, so a NaN
``alpha`` raises numpy's error.  ``integers``, ``exponential`` and
``choice`` stay numpy calls (numpy buffers half of a 64-bit draw for
small integer ranges, and the exponential is a ziggurat sampler).
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from typing import Any, Optional, Sequence

import numpy as np

__all__ = ["RandomStreams"]

_INF = math.inf
_copysign = math.copysign


class RandomStreams:
    """A registry of independent ``numpy.random.Generator`` substreams.

    Streams are keyed by name; the substream seed is derived from the root
    seed and a stable hash of the name (crc32), so the mapping is identical
    across processes and Python versions.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        #: numpy ``choice``'s CDF of the Zipf weights, per ``(n, alpha)``
        self._zipf_cdfs: dict[tuple[int, float], list[float]] = {}

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
        """``Generator.uniform(low, high)``: ``low + (high - low) * random()``.

        Number bounds with a finite span that is not negative (numpy
        checks the sign bit, so ``-0.0`` is negative) are computed here;
        anything else goes to numpy, which raises as it always did.
        """
        gen = self.stream(name)
        if isinstance(low, (int, float)) and isinstance(high, (int, float)):
            lo = float(low)
            span = float(high) - lo
            if 0.0 <= span < _INF and _copysign(1.0, span) > 0.0:
                return lo + span * gen.random()
        return float(gen.uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        return float(self.stream(name).exponential(mean))

    def integers(self, name: str, low: int, high: int) -> int:
        return int(self.stream(name).integers(low, high))

    def choice(self, name: str, seq: Sequence[Any],
               p: Optional[Sequence[float]] = None) -> Any:
        idx = self.stream(name).choice(len(seq), p=p)
        return seq[int(idx)]

    def zipf_index(self, name: str, n: int, alpha: float = 1.0) -> int:
        """Draw an index in [0, n) with Zipf(alpha) popularity.

        The first draw per ``(n, alpha)`` goes through numpy's ``choice``,
        which validates the weights; its CDF is kept only after that
        succeeds, and later draws are ``bisect_right(cdf, random())``,
        what ``choice`` computes with ``searchsorted(side="right")``.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        key = (n, float(alpha))
        cdf = self._zipf_cdfs.get(key)
        if cdf is not None:
            return bisect_right(cdf, self.stream(name).random())
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** (-alpha)
        weights /= weights.sum()
        idx = int(self.stream(name).choice(n, p=weights))
        table = weights.cumsum()
        table /= table[-1]
        self._zipf_cdfs[key] = table.tolist()
        return idx

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} streams={sorted(self._streams)}>"
