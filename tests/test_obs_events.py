"""Unit tests for the tracer's event log (repro.obs.Tracer)."""

import pytest

from repro.obs import Tracer


def make_trace():
    tr = Tracer()
    tr.emit(0.0, "http", "client-0", "dns_lookup", host="sweb.ucsb.edu")
    tr.emit(0.1, "http", "client-0", "connect", node=2)
    tr.emit(0.2, "sched", "broker-2", "choose_server", winner=3)
    tr.emit(0.3, "http", "client-0", "redirect", to=3)
    return tr


def test_emit_and_len():
    tr = make_trace()
    assert len(tr.records) == 4


def test_filter_by_category():
    tr = make_trace()
    assert len(tr.filter(category="http")) == 3
    assert len(tr.filter(category="sched")) == 1


def test_filter_by_actor_and_action():
    tr = make_trace()
    recs = tr.filter(actor="client-0", action="connect")
    assert len(recs) == 1
    assert recs[0].detail == {"node": 2}


def test_filter_predicate():
    tr = make_trace()
    recs = tr.filter(predicate=lambda r: r.time >= 0.2)
    assert [r.action for r in recs] == ["choose_server", "redirect"]


def test_actions_helper():
    tr = make_trace()
    assert [r.action for r in tr.filter(category="http")] == [
        "dns_lookup", "connect", "redirect"]


def test_disabled_trace_records_nothing():
    tr = Tracer(max_records=0)
    tr.emit(0.0, "x", "y", "z")
    assert len(tr.records) == 0


def test_max_records_cap():
    tr = Tracer(max_records=2)
    for i in range(5):
        tr.emit(float(i), "c", "a", f"act{i}")
    assert len(tr.records) == 2


def test_render_is_readable():
    tr = make_trace()
    text = tr.render(category="sched")
    assert "choose_server" in text
    assert "winner=3" in text


def test_iteration_in_time_order():
    tr = make_trace()
    times = [r.time for r in tr.records]
    assert times == sorted(times)


def test_active_gate_tracks_enabled_and_cap():
    tr = Tracer(max_records=2)
    assert tr.active
    tr.emit(0.0, "c", "a", "x")
    tr.emit(0.1, "c", "a", "y")
    assert not tr.active          # full -> deactivated
    assert not Tracer(max_records=0).active
    assert Tracer().active


def test_each_zero_cap_turns_off_only_its_own_kind():
    events_only = Tracer(max_requests=0)
    assert events_only.begin(0, "/a", "c", 0.0) is None
    events_only.emit(0.0, "c", "a", "x")
    assert len(events_only) == 0 and len(events_only.records) == 1

    spans_only = Tracer(max_records=0)
    assert spans_only.begin(0, "/a", "c", 0.0) is not None
    spans_only.emit(0.0, "c", "a", "x")
    assert len(spans_only) == 1 and spans_only.records == []
    assert not spans_only.active


def test_negative_event_cap_rejected():
    with pytest.raises(ValueError):
        Tracer(max_records=-1)


def test_repr_reports_both_kinds():
    tr = Tracer(max_requests=3, max_records=5)
    tr.emit(0.0, "c", "a", "x")
    assert repr(tr) == "<Tracer traces=0/3 records=1/5>"


def test_shared_tracer_rejects_a_second_cluster_run():
    """Every cluster numbers its requests from 0: a tracer handed to two
    runs must refuse the second run's request 0, not overwrite the first
    run's trace with it."""
    from repro.cluster import meiko_cs2
    from repro.core import SWEBCluster

    tracer = Tracer()

    def one_request_run():
        cluster = SWEBCluster(meiko_cs2(2), seed=1, tracer=tracer)
        cluster.add_file("/a.html", 4e3, home=0)
        cluster.run(until=cluster.fetch("/a.html"))

    one_request_run()
    assert [t.req_id for t in tracer.traces()] == [0]
    with pytest.raises(ValueError, match="already traced"):
        one_request_run()
    assert len(tracer) == 1


def test_geo_system_takes_an_events_only_tracer():
    from repro.geo import GeoSystem

    with pytest.raises(ValueError, match="max_requests=0"):
        GeoSystem(tracer=Tracer(), start_daemons=False)
    tracer = Tracer(max_requests=0)
    system = GeoSystem(tracer=tracer, start_daemons=False)
    assert all(c.tracer is tracer for c in system.clusters.values())
    assert system.placementd.tracer is tracer
