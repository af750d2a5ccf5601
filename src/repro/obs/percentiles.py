"""Shared percentile math — the one place quantiles are computed.

``Summary.of``, ``Metrics.response_percentile``,
``ScenarioResult.p95_response_time`` and the X10 report all route
through these two functions, so "p95" means exactly one thing repo-wide:
NumPy's default linear-interpolation quantile.
``tests/test_obs_registry.py`` pins the equivalence on shared inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["percentile", "percentiles"]


def percentiles(values: Iterable[float],
                qs: Sequence[float]) -> list[float]:
    """Exact percentiles of ``values`` at each q in ``qs`` (0..100).

    Returns ``nan`` for every q when ``values`` is empty — the same
    convention ``Summary.empty()`` uses.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return [float("nan")] * len(qs)
    out = np.percentile(arr, list(qs))
    return [float(v) for v in np.atleast_1d(out)]


def percentile(values: Iterable[float], q: float) -> float:
    """Exact single percentile of ``values`` at ``q`` (0..100)."""
    return percentiles(values, (q,))[0]
