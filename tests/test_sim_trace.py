"""Unit tests for the structured trace (repro.sim.trace)."""

from repro.sim import Trace


def make_trace():
    tr = Trace()
    tr.emit(0.0, "http", "client-0", "dns_lookup", host="sweb.ucsb.edu")
    tr.emit(0.1, "http", "client-0", "connect", node=2)
    tr.emit(0.2, "sched", "broker-2", "choose_server", winner=3)
    tr.emit(0.3, "http", "client-0", "redirect", to=3)
    return tr


def test_emit_and_len():
    tr = make_trace()
    assert len(tr) == 4


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
    tr = Trace(enabled=False)
    tr.emit(0.0, "x", "y", "z")
    assert len(tr) == 0


def test_max_records_cap():
    tr = Trace(max_records=2)
    for i in range(5):
        tr.emit(float(i), "c", "a", f"act{i}")
    assert len(tr) == 2


def test_render_is_readable():
    tr = make_trace()
    text = tr.render(category="sched")
    assert "choose_server" in text
    assert "winner=3" in text


def test_iteration_in_time_order():
    tr = make_trace()
    times = [r.time for r in tr]
    assert times == sorted(times)


def test_active_gate_tracks_enabled_and_cap():
    tr = Trace(max_records=2)
    assert tr.active
    tr.emit(0.0, "c", "a", "x")
    tr.emit(0.1, "c", "a", "y")
    assert not tr.active          # full -> deactivated
    assert not Trace(enabled=False).active
    assert Trace().active
