"""Multiprocess sharded runner over independent scenario cells.

A *grid* is a list of independent cells — (seed × config) points, each
a self-contained simulation: either a :class:`FluidCell` (the aggregate
client-population model, ``repro.workload.fluid``) or a
:class:`ScenarioCell` (the full per-client path).  Cells share nothing:
each one builds its own simulator, RNG streams and
:class:`~repro.obs.MetricsRegistry` inside the worker process, so the
kernel's determinism guarantees hold per cell no matter which process
runs it or in what order.

:func:`run_grid` partitions the cells across a ``multiprocessing`` pool
(``fork`` start method where available), then folds the per-cell
registry snapshots with :func:`repro.obs.merge_snapshots` **in
canonical cell-id order** — which is why a sharded run's merged metrics
are bit-equal to the serial run's, and why the grid fingerprint is
stable across worker counts and completion orderings.  See
``docs/SCALING.md`` for the full determinism contract.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

from ..obs import merge_snapshots
from ..workload import FluidScenario, Scenario, run_fluid
from .runner import ScenarioResult, run_scenario

__all__ = ["CellResult", "FluidCell", "ScenarioCell", "ShardReport",
           "grid_fingerprint", "make_fluid_grid", "run_cell", "run_grid",
           "scenario_fingerprint", "scenario_record_lines"]


@dataclass(frozen=True)
class FluidCell:
    """One fluid-model grid point: a cell id + its scenario."""

    cell_id: str
    scenario: FluidScenario


@dataclass(frozen=True)
class ScenarioCell:
    """One per-client-model grid point.

    Built from a factory callable: a module-level function, or a
    ``functools.partial`` of a cell builder such as
    :func:`repro.experiments.table3.table3_scenario`.  Either pickles
    cleanly into worker processes, unlike a constructed
    :class:`~repro.workload.Scenario` (whose workload is a generator-
    backed object).  The scenario itself is materialised *inside* the
    worker.
    """

    cell_id: str
    factory: Callable[[], Scenario]

    def build(self) -> Scenario:
        """Materialise the scenario (called in the worker process)."""
        return self.factory()


Cell = Union[FluidCell, ScenarioCell]


@dataclass
class CellResult:
    """What one cell sends back from its worker: pure picklable data.

    No simulator, cluster or registry objects cross the process
    boundary — only the registry *snapshot*, the cell's determinism
    fingerprint, and a small headline dict.
    """

    cell_id: str
    kind: str                      # "fluid" | "scenario"
    n_requests: int
    finished_at: float
    fingerprint: str
    snapshot: dict[str, Any]
    summary: str
    #: kind-specific detail — for scenario cells the exact record lines
    #: and counters (the determinism-golden comparison material), for
    #: fluid cells the per-node served counts
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class ShardReport:
    """Merged outcome of one :func:`run_grid` call."""

    #: per-cell results in canonical (sorted cell_id) order
    cells: list[CellResult]
    #: one combined registry snapshot over all cells
    merged: dict[str, Any]
    #: cell_id -> determinism fingerprint
    fingerprints: dict[str, str]
    #: digest over every (cell_id, fingerprint) pair — the whole grid's
    #: identity, independent of worker count and completion order
    grid_fingerprint: str
    workers: int

    @property
    def n_requests(self) -> int:
        return sum(c.n_requests for c in self.cells)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (for ``experiments.report`` and tests)."""
        return {
            "workers": self.workers,
            "n_cells": len(self.cells),
            "n_requests": self.n_requests,
            "grid_fingerprint": self.grid_fingerprint,
            "fingerprints": dict(self.fingerprints),
            "cells": [{"cell_id": c.cell_id, "kind": c.kind,
                       "n_requests": c.n_requests,
                       "summary": c.summary} for c in self.cells],
            "merged": self.merged,
        }


def scenario_record_lines(result: ScenarioResult) -> list[str]:
    """Render per-request records in the determinism-golden line format.

    This is byte-for-byte the format of ``tests/data/
    determinism_fingerprint.json`` (see ``tests/test_determinism.py``),
    so a sharded scenario cell can be checked against the same golden
    the serial kernel is pinned to.
    """
    lines = []
    for rec in result.metrics.records:
        phases = " ".join(f"{k}={v!r}" for k, v in sorted(rec.phases.items()))
        lines.append(
            f"{rec.req_id} {rec.path} start={rec.start!r} end={rec.end!r} "
            f"status={rec.status} ok={rec.ok} dropped={rec.dropped} "
            f"reason={rec.drop_reason} dns={rec.dns_node} "
            f"served={rec.served_by} redirected={rec.redirected} "
            f"retries={rec.retries} [{phases}]")
    return lines


def scenario_fingerprint(result: ScenarioResult) -> str:
    """The determinism digest of one per-client run: every record line,
    then the sorted counters, then ``finished_at``."""
    digest = hashlib.sha256()
    for line in scenario_record_lines(result):
        digest.update(line.encode())
        digest.update(b"\n")
    counters = sorted(result.metrics.counters.as_dict().items())
    digest.update(repr(counters).encode())
    digest.update(repr(result.finished_at).encode())
    return digest.hexdigest()


def run_cell(cell: Cell) -> CellResult:
    """Run one cell to completion (the worker-side entry point).

    Every cell gets a fresh simulator and registry, so running a cell
    is side-effect free and order-independent.
    """
    if isinstance(cell, FluidCell):
        res = run_fluid(cell.scenario, keep_records=False)
        return CellResult(
            cell_id=cell.cell_id,
            kind="fluid",
            n_requests=res.n_requests,
            finished_at=res.finished_at,
            fingerprint=res.fingerprint,
            snapshot=res.snapshot(),
            summary=res.summary_line(),
            detail={"served": list(res.served),
                    "redirected": res.redirected},
        )
    if isinstance(cell, ScenarioCell):
        result = run_scenario(cell.build())
        lines = scenario_record_lines(result)
        counters = {k: v for k, v in
                    sorted(result.metrics.counters.as_dict().items())}
        served_by = {str(k): v for k, v in
                     sorted(result.metrics.served_by_histogram().items())}
        return CellResult(
            cell_id=cell.cell_id,
            kind="scenario",
            n_requests=result.metrics.total,
            finished_at=result.finished_at,
            fingerprint=scenario_fingerprint(result),
            snapshot=result.cluster.registry.snapshot(),
            summary=result.summary_line(),
            detail={"records": lines, "counters": counters,
                    "served_by": served_by,
                    "finished_at": repr(result.finished_at)},
        )
    raise TypeError(f"unknown cell type: {type(cell).__name__}")


def grid_fingerprint(fingerprints: dict[str, str]) -> str:
    """Digest a cell_id -> fingerprint map, order-independently."""
    digest = hashlib.sha256()
    for cell_id in sorted(fingerprints):
        digest.update(f"{cell_id} {fingerprints[cell_id]}\n".encode())
    return digest.hexdigest()


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits the import state); fall back to
    the platform default where fork is unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def run_grid(cells: Sequence[Cell],
             workers: Optional[int] = None) -> ShardReport:
    """Run every cell, optionally across a process pool, and merge.

    ``workers=None`` picks ``min(len(cells), cpu_count)``; ``workers<=1``
    runs inline in this process (no pool, no pickling) — the *serial
    reference path*.  Whatever the worker count or completion order,
    results are re-sorted into canonical cell-id order before the
    snapshot fold, so the merged snapshot and grid fingerprint are
    identical across all execution modes.
    """
    if not cells:
        raise ValueError("run_grid needs at least one cell")
    ids = [c.cell_id for c in cells]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate cell ids in grid: {sorted(ids)}")
    if workers is None:
        workers = min(len(cells), multiprocessing.cpu_count())
    workers = max(1, int(workers))

    if workers == 1 or len(cells) == 1:
        results = [run_cell(c) for c in cells]
        workers = 1
    else:
        ctx = _pool_context()
        with ctx.Pool(processes=workers) as pool:
            results = pool.map(run_cell, cells)

    results.sort(key=lambda r: r.cell_id)
    fingerprints = {r.cell_id: r.fingerprint for r in results}
    merged = merge_snapshots([r.snapshot for r in results])
    return ShardReport(
        cells=results,
        merged=merged,
        fingerprints=fingerprints,
        grid_fingerprint=grid_fingerprint(fingerprints),
        workers=workers,
    )


def make_fluid_grid(base: FluidScenario,
                    seeds: Sequence[int]) -> list[FluidCell]:
    """The common grid shape: one fluid cell per seed of a base config."""
    return [FluidCell(cell_id=f"{base.name}/seed={seed}",
                      scenario=base.with_seed(seed))
            for seed in seeds]
