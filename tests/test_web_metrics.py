"""Tests for the metrics layer (repro.web.metrics)."""

import math

import pytest

from repro.web.metrics import Metrics, PHASE_NAMES, RequestRecord


def test_phase_names_match_table5_rows():
    assert PHASE_NAMES == ("preprocessing", "analysis", "redirection",
                           "data_transfer", "network")


def test_record_lifecycle_finish():
    metrics = Metrics()
    rec = metrics.new_record("/a", start=1.0, client="ucsb", size=10.0)
    assert rec.req_id == 0
    metrics.finish(rec, end=3.5, status=200)
    assert rec.ok and rec.response_time == pytest.approx(2.5)
    assert metrics.completed == 1
    assert metrics.counters["status_200"] == 1


def test_record_lifecycle_drop():
    metrics = Metrics()
    rec = metrics.new_record("/a", start=0.0)
    metrics.drop(rec, end=5.0, reason="timeout")
    assert rec.dropped and rec.drop_reason == "timeout"
    assert metrics.dropped == 1
    assert metrics.counters["dropped_timeout"] == 1
    assert metrics.drop_rate == 1.0


def test_non_200_is_not_completed():
    metrics = Metrics()
    rec = metrics.new_record("/a", start=0.0)
    metrics.finish(rec, end=1.0, status=404)
    assert not rec.ok
    assert metrics.completed == 0
    assert metrics.counters["status_404"] == 1


def test_redirected_counter():
    metrics = Metrics()
    rec = metrics.new_record("/a", start=0.0)
    rec.redirected = True
    metrics.finish(rec, end=1.0, status=200)
    assert metrics.counters["redirected"] == 1


def test_response_times_filtering():
    metrics = Metrics()
    ok = metrics.new_record("/a", start=0.0)
    metrics.finish(ok, end=2.0, status=200)
    bad = metrics.new_record("/b", start=0.0)
    metrics.finish(bad, end=9.0, status=404)
    dropped = metrics.new_record("/c", start=0.0)
    metrics.drop(dropped, end=1.0, reason="refused")
    assert metrics.response_times(only_ok=True) == [2.0]
    assert metrics.response_times(only_ok=False) == [2.0, 9.0]


def test_phase_breakdown_aggregates():
    metrics = Metrics()
    for duration in (1.0, 3.0):
        rec = metrics.new_record("/a", start=0.0)
        rec.add_phase("data_transfer", duration)
        metrics.finish(rec, end=duration, status=200)
    acc = metrics.phase_breakdown()
    assert acc.mean("data_transfer") == pytest.approx(2.0)
    assert acc.count("data_transfer") == 2


def test_served_by_histogram_counts_only_ok():
    metrics = Metrics()
    a = metrics.new_record("/a", start=0.0)
    a.served_by = 2
    metrics.finish(a, end=1.0, status=200)
    b = metrics.new_record("/b", start=0.0)
    b.served_by = 2
    metrics.finish(b, end=1.0, status=404)
    assert metrics.served_by_histogram() == {2: 1}


def test_record_phase_validation():
    rec = RequestRecord(req_id=0, path="/a", start=0.0)
    with pytest.raises(ValueError):
        rec.add_phase("x", -1.0)
    rec.add_phase("x", 1.0)
    rec.add_phase("x", 0.5)
    assert rec.phases["x"] == pytest.approx(1.5)


def test_pending_record_response_time_none():
    rec = RequestRecord(req_id=0, path="/a", start=0.0)
    assert rec.response_time is None


def test_empty_metrics_summaries():
    metrics = Metrics()
    assert metrics.drop_rate == 0.0
    assert math.isnan(metrics.mean_response_time())
    assert metrics.response_summary().count == 0
