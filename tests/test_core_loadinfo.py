"""Unit tests for LoadSnapshot / ClusterView (repro.core.loadinfo)."""

import pytest

from repro.core import ClusterView, LoadSnapshot


def snap(node=0, cpu=1.0, t=0.0, disk=0.0, net=0.0):
    return LoadSnapshot(node=node, cpu_load=cpu, disk_load=disk, net_load=net,
                        cpu_speed=40e6, disk_bandwidth=5e6, timestamp=t)


def test_update_and_get():
    view = ClusterView(owner=0, staleness_timeout=5.0)
    view.update(snap(node=1, cpu=2.0, t=0.0))
    got = view.get(1, now=1.0)
    assert got is not None and got.cpu_load == 2.0


def test_staleness_marks_unavailable():
    view = ClusterView(owner=0, staleness_timeout=5.0)
    view.update(snap(node=1, t=0.0))
    assert view.get(1, now=4.9) is not None
    assert view.get(1, now=5.1) is None


def test_own_snapshot_never_stales():
    view = ClusterView(owner=0, staleness_timeout=5.0)
    view.update(snap(node=0, t=0.0))
    assert view.get(0, now=1000.0) is not None


def test_available_filters_and_sorts():
    view = ClusterView(owner=0, staleness_timeout=5.0)
    view.update(snap(node=2, t=0.0))
    view.update(snap(node=0, t=8.0))
    view.update(snap(node=1, t=8.0))
    avail = view.available(now=9.0)
    assert [s.node for s in avail] == [0, 1]   # node 2 is stale


def test_inflate_cpu_delta():
    view = ClusterView(owner=0)
    view.update(snap(node=1, cpu=2.0, t=0.0))
    view.inflate_cpu(1, delta=0.30)
    got = view.get(1, now=0.0)
    assert got.cpu_load == pytest.approx(2.0 * 1.3 + 0.3)


def test_inflate_cpu_moves_idle_node_off_zero():
    view = ClusterView(owner=0)
    view.update(snap(node=1, cpu=0.0, t=0.0))
    view.inflate_cpu(1, delta=0.30)
    assert view.get(1, now=0.0).cpu_load == pytest.approx(0.30)


def test_inflate_unknown_node_is_noop():
    view = ClusterView(owner=0)
    view.inflate_cpu(7, delta=0.3)   # must not raise
    assert view.get(7, now=0.0) is None


def test_snapshot_aged():
    s = snap(t=3.0)
    assert s.aged(10.0) == pytest.approx(7.0)


def test_view_validation():
    with pytest.raises(ValueError):
        ClusterView(owner=0, staleness_timeout=0.0)
