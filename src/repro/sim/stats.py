"""Measurement helpers: sample summaries and per-phase cost totals.

The experiment harness reports the same quantities the paper does —
average response time, drop rate, maximum sustained rps, per-phase cost
breakdowns, and server-side CPU-overhead percentages — all built from
these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Percentile math is deliberately not implemented here: repro.obs (the
# dependency-free observability layer below sim) owns the one shared
# implementation, so Summary, histograms and reports can never
# disagree about what "p95" means.
from ..obs.percentiles import percentiles as _percentiles

__all__ = ["Summary", "PhaseAccumulator"]


@dataclass(frozen=True)
class Summary:
    """Immutable numeric summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    total: float

    @staticmethod
    def empty() -> "Summary":
        nan = float("nan")
        return Summary(0, nan, nan, nan, nan, nan, nan, nan, 0.0)

    @staticmethod
    def of(values: Iterable[float]) -> "Summary":
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            return Summary.empty()
        p50, p90, p99 = _percentiles(arr, (50, 90, 99))
        return Summary(
            count=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=float(p50),
            p90=float(p90),
            p99=float(p99),
            total=float(arr.sum()),
        )


class PhaseAccumulator:
    """Accumulates time spent per named phase (Table 5's breakdown)."""

    def __init__(self) -> None:
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def record(self, phase: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative duration for {phase!r}: {duration}")
        self._totals[phase] = self._totals.get(phase, 0.0) + duration
        self._counts[phase] = self._counts.get(phase, 0) + 1

    def total(self, phase: str) -> float:
        return self._totals.get(phase, 0.0)

    def count(self, phase: str) -> int:
        return self._counts.get(phase, 0)

    def mean(self, phase: str) -> float:
        n = self._counts.get(phase, 0)
        return self._totals.get(phase, 0.0) / n if n else float("nan")

    def phases(self) -> list[str]:
        return sorted(self._totals)

    def as_dict(self) -> dict[str, float]:
        return dict(self._totals)
