"""Deterministic named random substreams.

Every stochastic component of the simulation draws from its own named
substream derived from a single root seed, so adding a new source of
randomness never perturbs existing ones and every experiment is exactly
replayable.

The draw helpers return exactly what the matching ``numpy`` call returns
and leave each stream at the same position.  Each takes numpy's
``size``: ``None`` draws one value (a Python ``int``/``float``/element),
``k`` draws ``k`` of them as an array (``choice``: a list) in one call.
One ``size=k`` call and ``k`` single calls give one sequence and leave
the stream in one state, for doubles, for bounded ``integers`` (a small
range takes half of a 64-bit draw; the spare half stays buffered in the
bit generator, whichever call asked) and for ``choice`` with ``p``;
``tests/test_sim_rng.py`` pins this.  So a builder may ask for all of a
stream's draws at once, provided no other draw on that stream falls
between them.

Where numpy's draw is a plain function of one ``random()`` double, the
helper computes it directly: ``uniform`` is ``low + (high - low) * u``,
and ``zipf_index`` searches the table numpy's weighted ``choice`` builds
(``c = p.cumsum(); c /= c[-1]``, ``searchsorted(side="right")``), kept
once per ``(n, alpha)`` instead of being validated and summed again on
every call.  A table is kept only after numpy's own ``choice`` accepted
its weights, so a NaN ``alpha`` raises numpy's error.  ``integers``,
``exponential`` and ``choice`` stay numpy calls (the exponential is a
ziggurat sampler).
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Optional, Sequence, overload

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
        self._zipf_cdfs: dict[tuple[int, float], np.ndarray] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the substream called ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            gen = np.random.default_rng(np.random.SeedSequence([self.seed, key]))
            self._streams[name] = gen
        return gen

    # Convenience draws -----------------------------------------------------
    @overload
    def uniform(self, name: str, low: float = ..., high: float = ...,
                size: None = ...) -> float: ...
    @overload
    def uniform(self, name: str, low: float = ..., high: float = ..., *,
                size: int) -> np.ndarray: ...

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0,
                size: Optional[int] = None) -> Any:
        """``Generator.uniform(low, high, size)``: ``low + (high - low) *
        random(size)``.

        Number bounds with a finite span that is not negative (numpy
        checks the sign bit, so ``-0.0`` is negative) are computed here;
        anything else goes to numpy, which raises as it always did.
        """
        gen = self.stream(name)
        if isinstance(low, (int, float)) and isinstance(high, (int, float)):
            lo = float(low)
            span = float(high) - lo
            if 0.0 <= span < _INF and _copysign(1.0, span) > 0.0:
                return lo + span * gen.random(size)
        draw = gen.uniform(low, high, size)
        return float(draw) if size is None else draw

    def exponential(self, name: str, mean: float) -> float:
        return float(self.stream(name).exponential(mean))

    @overload
    def integers(self, name: str, low: int, high: int,
                 size: None = ...) -> int: ...
    @overload
    def integers(self, name: str, low: int, high: int, *,
                 size: int) -> np.ndarray: ...

    def integers(self, name: str, low: int, high: int,
                 size: Optional[int] = None) -> Any:
        draw = self.stream(name).integers(low, high, size)
        return int(draw) if size is None else draw

    @overload
    def choice(self, name: str, seq: Sequence[Any],
               p: Optional[Sequence[float]] = ..., size: None = ...) -> Any: ...
    @overload
    def choice(self, name: str, seq: Sequence[Any],
               p: Optional[Sequence[float]] = ..., *,
               size: int) -> list[Any]: ...

    def choice(self, name: str, seq: Sequence[Any],
               p: Optional[Sequence[float]] = None,
               size: Optional[int] = None) -> Any:
        idx = self.stream(name).choice(len(seq), size, p=p)
        if size is None:
            return seq[int(idx)]
        return [seq[i] for i in idx.tolist()]

    @overload
    def zipf_index(self, name: str, n: int, alpha: float = ...,
                   size: None = ...) -> int: ...
    @overload
    def zipf_index(self, name: str, n: int, alpha: float = ..., *,
                   size: int) -> np.ndarray: ...

    def zipf_index(self, name: str, n: int, alpha: float = 1.0,
                   size: Optional[int] = None) -> Any:
        """Draw indices in [0, n) with Zipf(alpha) popularity.

        The first call per ``(n, alpha)`` goes through numpy's ``choice``,
        which validates the weights; its CDF is kept only after that
        succeeds, and later calls are ``searchsorted(cdf, random(size),
        side="right")``, what ``choice`` computes.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        key = (n, float(alpha))
        gen = self.stream(name)
        cdf = self._zipf_cdfs.get(key)
        if cdf is None:
            weights = np.arange(1, n + 1, dtype=float) ** (-alpha)
            weights /= weights.sum()
            idx = gen.choice(n, size, p=weights)
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            self._zipf_cdfs[key] = cdf
        else:
            idx = cdf.searchsorted(gen.random(size), side="right")
        return int(idx) if size is None else idx

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} streams={sorted(self._streams)}>"
