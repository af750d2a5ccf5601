"""Tests for the aggregate (fluid) client-population model.

The fluid model (``repro.workload.fluid``, docs/SCALING.md) is the
million-request path: these tests pin its determinism contract
(bit-identical fingerprints for identical cells, independent of batch
size and record retention), the array-backed record semantics, the
queue model's basic physics, and the registry it publishes into.
"""

import json
import math

import pytest

from repro.fuzz import (CaseReport, FuzzConfig, case_artifact,
                        config_from_artifact, run_case)
from repro.obs import MetricsRegistry
from repro.workload import (
    FluidRecords,
    FluidScenario,
    run_fluid,
)


def _small(**overrides) -> FluidScenario:
    defaults = dict(name="t", nodes=3, rate=500.0, n_requests=2_000,
                    n_paths=64, hot_set=8, seed=11, batch=256)
    defaults.update(overrides)
    return FluidScenario(**defaults)


# -- determinism -----------------------------------------------------------

def test_identical_cells_fingerprint_identically():
    a = run_fluid(_small())
    b = run_fluid(_small())
    assert a.fingerprint == b.fingerprint
    assert a.snapshot() == b.snapshot()
    assert a.served == b.served
    assert a.finished_at == b.finished_at


def test_fingerprint_independent_of_record_retention():
    """Whether records are kept must not change outcomes — the digest
    covers what happened, not what was stored."""
    full = run_fluid(_small())
    lean = run_fluid(_small(), keep_records=False)
    assert full.fingerprint == lean.fingerprint
    assert lean.records is None and full.records is not None


def test_batch_is_part_of_the_cell_identity():
    """``batch`` regroups the arrival cumsum, which moves float
    rounding at the ULP level — so it is a scenario field, hashed into
    the cell identity, not a free execution knob (docs/SCALING.md)."""
    a = run_fluid(_small(), keep_records=False)
    b = run_fluid(_small(batch=37), keep_records=False)
    assert a.scenario.batch != b.scenario.batch
    assert a.n_requests == b.n_requests
    # outcomes agree statistically even though bits may differ
    assert a.redirected == pytest.approx(b.redirected, rel=0.2, abs=5)


def test_seed_and_config_changes_change_the_fingerprint():
    base = run_fluid(_small(), keep_records=False)
    for other in (_small(seed=12), _small(rate=600.0), _small(nodes=4),
                  _small(alpha=None), _small(hot_set=0)):
        assert run_fluid(other, keep_records=False).fingerprint \
            != base.fingerprint


# -- records ---------------------------------------------------------------

def test_records_are_array_backed_and_consistent():
    result = run_fluid(_small())
    records = result.records
    assert isinstance(records, FluidRecords)
    n = result.n_requests
    assert len(records) == n
    for column in (records.latencies, records.nodes, records.path_ranks,
                   records.redirected):
        assert len(column) == n
    arrivals = list(records.arrivals)
    assert arrivals[0] >= 0.0 and min(records.latencies) > 0.0
    assert arrivals == sorted(arrivals)  # the Poisson stream is ordered
    assert set(records.nodes) == set(range(result.scenario.nodes))
    assert all(0 <= rank < result.scenario.n_paths
               for rank in records.path_ranks)
    assert sum(records.redirected) == result.redirected


# -- queue physics ---------------------------------------------------------

def test_served_counts_and_latency_floor():
    result = run_fluid(_small())
    assert sum(result.served) == result.n_requests
    # every latency includes at least the fixed CPU cost
    assert min(result.records.latencies) >= result.scenario.t_cpu
    assert result.finished_at > 0.0
    # the batch-horizon design means a handful of kernel events total
    assert result.event_count < result.n_requests / 10


def test_overload_grows_latency():
    """Offered load far beyond capacity must queue: mean latency well
    above the lightly-loaded run's."""
    light = run_fluid(_small(rate=200.0), keep_records=False)
    heavy = run_fluid(_small(rate=50_000.0), keep_records=False)
    mean = lambda r: (r.registry.histogram("fluid.latency_s").total
                      / r.n_requests)
    assert mean(heavy) > 10 * mean(light)


def test_single_node_never_redirects():
    result = run_fluid(_small(nodes=1), keep_records=False)
    assert result.redirected == 0
    assert result.served == [result.n_requests]


# -- registry --------------------------------------------------------------

def test_registry_publication():
    registry = MetricsRegistry()
    result = run_fluid(_small(), registry=registry)
    snap = registry.snapshot()
    assert snap["counters"]["fluid.requests"] == 2_000
    assert snap["counters"]["fluid.redirected"] == result.redirected
    per_node = [snap["counters"][f"fluid.served.n{i}"] for i in range(3)]
    assert per_node == result.served
    hist = snap["histograms"]["fluid.latency_s"]
    assert hist["count"] == 2_000
    assert hist["min"] == min(result.records.latencies)
    assert hist["max"] == max(result.records.latencies)
    assert hist["total"] == pytest.approx(sum(result.records.latencies))
    assert "mean_rt" in result.summary_line()


# -- validation ------------------------------------------------------------

def test_validate_rejects_malformed_cells():
    for bad in (dict(nodes=0), dict(rate=0.0), dict(n_requests=0),
                dict(n_paths=0), dict(hot_set=65), dict(batch=0)):
        with pytest.raises(ValueError):
            run_fluid(_small(**bad))


@pytest.mark.parametrize("field, value", [
    ("t_redirect", -1e-4), ("t_cpu", -1e-4), ("disk_bps", 0.0),
    ("disk_bps", -5e7), ("mem_bps", 0.0), ("mem_bps", -4e8),
    ("mean_file_bytes", -1.0),
    ("alpha", -0.5)])
def test_validate_rejects_negative_costs_and_bandwidths(field, value):
    with pytest.raises(ValueError, match=field):
        _small(**{field: value}).validate()


@pytest.mark.parametrize("field", ["rate", "t_cpu", "t_redirect",
                                   "mean_file_bytes", "disk_bps", "mem_bps"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_rejects_non_finite_costs(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        _small(**{field: value}).validate()


def test_fuzz_replay_rejects_a_nan_rate():
    """``fuzz --replay`` parses ``NaN`` out of an artifact, so a replayed
    case must be stopped by the fluid scenario's own validation."""
    config = FuzzConfig(case_id="nan", mode="fluid", seed=1, nodes=3,
                        policy="sweb", rate=500.0, n_requests=100)
    text = json.dumps(case_artifact(CaseReport(config)))
    assert text.count('"rate": 500.0') == 2
    text = text.replace('"rate": 500.0', '"rate": NaN')
    replayed = config_from_artifact(json.loads(text))
    assert math.isnan(replayed.rate)
    with pytest.raises(ValueError, match="rate must be finite"):
        run_case(replayed)


def test_validate_accepts_the_boundary_values():
    _small(t_redirect=0.0, t_cpu=0.0, mean_file_bytes=0.0,
           alpha=0.0).validate()
    _small(alpha=None).validate()


def test_with_seed_returns_new_cell():
    base = _small()
    other = base.with_seed(99)
    assert other.seed == 99 and base.seed == 11
    assert other.nodes == base.nodes
