"""Unit tests for experiment-module helper functions."""

import pytest

from repro.experiments.dynamics import queue_trajectory
from repro.experiments.figure1 import transaction_trace
from repro.experiments.forwarding import fetch_time
from repro.experiments.skewed import run_policy
from repro.experiments.table2 import sweep_nodes
from repro.experiments.table3 import run_cell
from repro.cluster import meiko_cs2


def test_transaction_trace_returns_ok_record():
    tracer, record = transaction_trace(path="/x.html", size=5e3)
    assert record.ok
    assert len(tracer.records) > 0
    assert any(r.category == "dns" for r in tracer.records)


def test_skewed_run_policy_short():
    res = run_policy("round-robin", duration=5.0, rps=3)
    assert res.completed > 0
    assert res.drop_rate == 0.0


def test_forwarding_fetch_time_positive_and_ordered():
    t_small = fetch_time("forward", 1e3)
    t_big = fetch_time("forward", 1e6)
    assert 0 < t_small < t_big


def test_queue_trajectory_samples_every_second():
    backlog, metrics = queue_trajectory(rps=4, duration=4.0)
    assert len(backlog) >= 4
    assert metrics.total == 16
    assert all(b >= 0 for b in backlog)


def test_sweep_nodes_returns_each_count():
    out = sweep_nodes(meiko_cs2, (1, 2), size=1e4, rps=3, duration=3.0)
    assert set(out) == {1, 2}
    for res in out.values():
        assert res.metrics.total == 9


def test_table3_run_cell_policies_share_workload_shape():
    a = run_cell(5, "round-robin", duration=4.0)
    b = run_cell(5, "sweb", duration=4.0)
    assert a.metrics.total == b.metrics.total
    assert [r.path for r in a.metrics.records] == \
        [r.path for r in b.metrics.records]
