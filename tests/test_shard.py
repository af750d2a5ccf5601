"""Tests for the sharded multiprocess grid runner (docs/SCALING.md).

Pins the two contracts the shard design rests on:

* **merge exactness** — folding per-shard registry snapshots yields the
  same counters/histograms as one serial registry (hypothesis property
  over arbitrary shard splits);
* **determinism across execution modes** — per-cell fingerprints and
  the merged snapshot are bit-identical whatever the worker count or
  submission order, and a scenario cell run through a pool worker still
  matches the serial golden record lines (the same format pinned by
  ``tests/data/determinism_fingerprint.json``).

The CI box may have a single core; nothing here assumes parallel
speedup, only that pools with >1 worker behave identically.
"""

import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import meiko_cs2
from repro.experiments import (
    FluidCell,
    ScenarioCell,
    grid_fingerprint,
    make_fluid_grid,
    run_cell,
    run_grid,
)
from repro.experiments.table1 import table1_scenario
from repro.obs import MetricsRegistry, merge_snapshots
from repro.workload import FluidScenario, run_fluid

GOLDEN = Path(__file__).resolve().parent / "data" / \
    "determinism_fingerprint.json"


def _base(n: int = 3_000) -> FluidScenario:
    return FluidScenario(name="shard-t", nodes=3, rate=500.0,
                         n_requests=n, n_paths=64, hot_set=8, batch=512)


# -- hypothesis: merged shards == serial registry --------------------------

@given(st.lists(st.integers(min_value=0, max_value=400),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_merged_shard_registries_equal_serial(counts, rng):
    """Split a stream of observations across N shard registries any
    way at all; the merged snapshot must equal the one-registry run."""
    serial = MetricsRegistry()
    shards = [MetricsRegistry() for _ in counts]
    for shard_idx, n in enumerate(counts):
        shard = shards[shard_idx]
        for i in range(n):
            value = rng.uniform(0.001, 40.0)
            for reg in (serial, shard):
                reg.counters("req").incr("total")
                reg.counters("req").incr(f"shardable.k{i % 3}", by=2)
                reg.gauge("bytes").add(value * 10)
                reg.histogram("rt").record(value)
    merged = merge_snapshots([s.snapshot() for s in shards])
    expected = serial.snapshot()
    assert merged["counters"] == expected["counters"]
    for name, gauge in expected["gauges"].items():
        assert merged["gauges"][name] == pytest.approx(gauge)
    for name, hist in expected["histograms"].items():
        got = merged["histograms"][name]
        assert got["buckets"] == hist["buckets"]
        assert got["count"] == hist["count"]
        assert got["min"] == hist["min"] and got["max"] == hist["max"]
        assert got["total"] == pytest.approx(hist["total"])
        for q in ("p50", "p95", "p99"):
            if hist[q] is None:
                assert got[q] is None
            else:
                assert got[q] == pytest.approx(hist[q])


# -- determinism across worker counts and orderings ------------------------

def test_grid_identical_across_worker_counts_and_orderings():
    cells = make_fluid_grid(_base(), seeds=[3, 1, 2, 5])
    serial = run_grid(cells, workers=1)
    pooled = run_grid(cells, workers=2)
    shuffled = run_grid(list(reversed(cells)), workers=3)
    for report in (pooled, shuffled):
        assert report.grid_fingerprint == serial.grid_fingerprint
        assert report.fingerprints == serial.fingerprints
        assert report.merged == serial.merged  # bit-equal, not approx
        assert [c.cell_id for c in report.cells] \
            == [c.cell_id for c in serial.cells]
    assert serial.workers == 1 and pooled.workers == 2


def test_sharded_merge_equals_serial_fluid_registry():
    """One registry receiving every cell's stream == the sharded merge."""
    cells = make_fluid_grid(_base(), seeds=[1, 2, 3])
    report = run_grid(cells, workers=2)
    combined = MetricsRegistry()
    for cell in cells:
        run_fluid(cell.scenario, registry=combined, keep_records=False)
    assert report.merged == combined.snapshot()


def test_cell_results_carry_pure_data():
    report = run_grid(make_fluid_grid(_base(800), seeds=[1]), workers=1)
    cell = report.cells[0]
    assert cell.kind == "fluid"
    assert cell.n_requests == 800
    assert cell.detail["served"] and sum(cell.detail["served"]) == 800
    doc = report.to_dict()
    json.dumps(doc)  # JSON-ready, nothing live crosses the boundary
    assert doc["n_requests"] == 800
    assert doc["grid_fingerprint"] == report.grid_fingerprint


# -- scenario cells against the determinism golden -------------------------

def _det_meiko():
    """The golden file's det-meiko scenario, rebuilt for a worker."""
    import tests.test_determinism as det
    return det._scenarios()[0]


def test_scenario_cell_matches_golden_fingerprint():
    """A scenario cell run through the shard runner reproduces the
    exact record lines the serial determinism golden pins."""
    golden = json.loads(GOLDEN.read_text())["det-meiko"]
    for workers in (1, 2):
        report = run_grid(
            [ScenarioCell(cell_id="det", factory=_det_meiko)],
            workers=workers)
        cell = report.cells[0]
        assert cell.kind == "scenario"
        assert cell.detail["records"] == golden["records"]
        assert cell.detail["counters"] == golden["counters"]
        assert cell.detail["served_by"] == golden["served_by"]
        assert cell.detail["finished_at"] == golden["finished_at"]


def test_scenario_cell_from_a_partial_of_a_cell_builder():
    def table1(rps):
        return functools.partial(table1_scenario, meiko_cs2(6), 1.5e6, rps,
                                 30.0, seed=3)
    a = run_cell(ScenarioCell(cell_id="a", factory=table1(16)))
    b = run_cell(ScenarioCell(cell_id="b", factory=table1(24)))
    assert a.fingerprint != b.fingerprint
    assert a.snapshot["counters"]["http.requests"] == a.n_requests
    # The partial pickles into a worker and runs there unchanged.
    pooled = run_grid([ScenarioCell(cell_id="a", factory=table1(16))],
                      workers=2)
    assert pooled.cells[0].fingerprint == a.fingerprint


# -- guard rails -----------------------------------------------------------

def test_grid_input_validation():
    cells = make_fluid_grid(_base(100), seeds=[1, 1])
    with pytest.raises(ValueError, match="duplicate"):
        run_grid(cells)
    with pytest.raises(ValueError, match="at least one"):
        run_grid([])
    with pytest.raises(TypeError, match="factory"):
        ScenarioCell(cell_id="x")
    with pytest.raises(TypeError, match="unknown cell"):
        run_cell("not a cell")


def test_grid_fingerprint_is_order_independent():
    fps = {"b": "2" * 64, "a": "1" * 64}
    assert grid_fingerprint(fps) == grid_fingerprint(dict(reversed(
        list(fps.items()))))
    assert grid_fingerprint(fps) != grid_fingerprint({"a": "1" * 64})
