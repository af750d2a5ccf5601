"""Periodic signal monitoring and ASCII charts.

A :class:`Monitor` samples named probes (callables) at a fixed period
inside the simulation — the instrumentation equivalent of watching
``xload`` on every node of the Meiko — and renders the series as
terminal charts for the examples and reports.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from .engine import Event, Process, Simulator

__all__ = ["Monitor", "ascii_series", "ascii_sparkline"]

_BLOCKS = " ▁▂▃▄▅▆▇█"


class Monitor:
    """Samples named probes every ``period`` simulated seconds."""

    def __init__(self, sim: Simulator, period: float = 1.0) -> None:
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.sim = sim
        self.period = float(period)
        self._probes: dict[str, Callable[[], float]] = {}
        self.times: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self._proc = None

    def probe(self, name: str, fn: Callable[[], float]) -> "Monitor":
        """Register a probe (chainable)."""
        if name in self._probes:
            raise ValueError(f"duplicate probe {name!r}")
        self._probes[name] = fn
        self.samples[name] = []
        return self

    def start(self) -> Process:
        """Spawn the sampling process."""
        if self._proc is None:
            self._proc = self.sim.spawn(self._run(), name="monitor")
        return self._proc

    def _run(self) -> Iterator[Event]:
        while True:
            self.times.append(self.sim.now)
            for name, fn in self._probes.items():
                self.samples[name].append(float(fn()))
            yield self.sim.timeout(self.period)

    # -- access -------------------------------------------------------------
    def series(self, name: str) -> tuple[list[float], list[float]]:
        """(times, values) for one probe."""
        if name not in self.samples:
            raise KeyError(f"unknown probe {name!r}")
        return self.times[:len(self.samples[name])], self.samples[name]

    def render(self, width: int = 60) -> str:
        """One sparkline per probe, labelled with min/mean/max."""
        lines = []
        for name in self._probes:
            values = self.samples[name]
            if not values:
                continue
            lines.append(f"{name:<20} {ascii_sparkline(values, width)} "
                         f"min {min(values):.2f} mean "
                         f"{float(np.mean(values)):.2f} max {max(values):.2f}")
        return "\n".join(lines)


def ascii_sparkline(values: Iterable[float], width: int = 60) -> str:
    """Compress a series into a fixed-width block-character sparkline."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return ""
    if arr.size > width:
        # Average into `width` buckets.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() if b > a else arr[min(a, arr.size - 1)]
                        for a, b in zip(edges[:-1], edges[1:])])
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        return _BLOCKS[1] * len(arr)
    scaled = (arr - lo) / (hi - lo) * (len(_BLOCKS) - 2) + 1
    return "".join(_BLOCKS[int(round(s))] for s in scaled)


def ascii_series(values: Iterable[float], height: int = 8, width: int = 60,
                 label: str = "") -> str:
    """A multi-line bar chart of a series (rows = magnitude bands)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return "(no data)"
    if arr.size > width:
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() if b > a else arr[min(a, arr.size - 1)]
                        for a, b in zip(edges[:-1], edges[1:])])
    hi = float(arr.max())
    if hi <= 0:
        hi = 1.0
    rows = []
    for level in range(height, 0, -1):
        threshold = hi * (level - 0.5) / height
        row = "".join("█" if v >= threshold else " " for v in arr)
        prefix = f"{hi * level / height:8.2f} |" if level in (height, 1) \
            else "         |"
        rows.append(prefix + row)
    rows.append("         +" + "-" * len(arr))
    if label:
        rows.append(f"          {label}")
    return "\n".join(rows)
