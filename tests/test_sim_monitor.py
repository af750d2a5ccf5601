"""Tests for the monitoring/ASCII-chart module (repro.sim.monitor)."""

import math

import pytest

from repro.sim import Monitor, Simulator, ascii_series, ascii_sparkline


def test_monitor_samples_at_period():
    sim = Simulator()
    counter = {"v": 0.0}

    def riser():
        while True:
            counter["v"] += 1.0
            yield sim.timeout(1.0)

    sim.spawn(riser())
    monitor = Monitor(sim, period=1.0).probe("v", lambda: counter["v"])
    monitor.start()
    sim.run(until=5.5)
    times, values = monitor.series("v")
    assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert len(values) == 6
    assert values == sorted(values)


def test_monitor_multiple_probes_and_stats():
    sim = Simulator()
    monitor = Monitor(sim, period=0.5)
    monitor.probe("two", lambda: 2.0).probe("ramp", lambda: sim.now)
    monitor.start()
    sim.run(until=3.0)
    _, two = monitor.series("two")
    _, ramp = monitor.series("ramp")
    assert sum(two) / len(two) == pytest.approx(2.0)
    assert max(ramp) == pytest.approx(2.5)


def test_monitor_duplicate_probe_rejected():
    monitor = Monitor(Simulator())
    monitor.probe("x", lambda: 0.0)
    with pytest.raises(ValueError):
        monitor.probe("x", lambda: 1.0)


def test_monitor_unknown_series():
    monitor = Monitor(Simulator())
    with pytest.raises(KeyError):
        monitor.series("nope")


def test_monitor_validation():
    with pytest.raises(ValueError):
        Monitor(Simulator(), period=0.0)


def test_monitor_render_contains_labels():
    sim = Simulator()
    monitor = Monitor(sim, period=1.0).probe("load", lambda: sim.now)
    monitor.start()
    sim.run(until=4.0)
    text = monitor.render()
    assert "load" in text and "mean" in text


def test_sparkline_shape():
    line = ascii_sparkline([0, 1, 2, 3, 4])
    assert len(line) == 5
    assert line[0] < line[-1]        # block characters sort by height


def test_sparkline_constant_and_empty():
    assert ascii_sparkline([]) == ""
    flat = ascii_sparkline([3, 3, 3])
    assert len(set(flat)) == 1


def test_sparkline_compresses_to_width():
    line = ascii_sparkline(range(1000), width=40)
    assert len(line) == 40


def test_ascii_series_renders():
    text = ascii_series([0, 1, 5, 2], height=4, label="t")
    assert "█" in text
    assert text.count("\n") >= 4
    assert "t" in text


def test_ascii_series_empty():
    assert ascii_series([]) == "(no data)"
