"""Tests for Common Log Format writing, parsing and replay."""

from datetime import datetime, timezone

import pytest

from repro import SWEBCluster, meiko_cs2
from repro.experiments.runner import run_scenario
from repro.sim import RandomStreams
from repro.workload import (
    Scenario,
    burst_workload,
    parse_clf,
    uniform_corpus,
    uniform_sampler,
    workload_from_clf,
    write_clf,
)
from repro.workload.logs import CLFEntry, DEFAULT_EPOCH, format_clf

SAMPLE = ('alpha.rutgers.edu - - [15/Apr/1996:09:00:01 +0000] '
          '"GET /maps/x.gif HTTP/1.0" 200 1500000\n'
          'beta.ucsb.edu - - [15/Apr/1996:09:00:02 +0000] '
          '"GET /index.html HTTP/1.0" 404 0\n')


def test_format_and_parse_roundtrip():
    entry = CLFEntry(host="h.example.edu",
                     time=datetime(1996, 4, 15, 9, 0, 5, tzinfo=timezone.utc),
                     method="GET", path="/a.html", status=200, nbytes=123)
    line = format_clf(entry)
    parsed = parse_clf(line)
    assert len(parsed) == 1
    back = parsed[0]
    assert back.host == entry.host
    assert back.path == entry.path
    assert back.status == 200 and back.nbytes == 123
    assert back.ok


def test_parse_sample_log():
    entries = parse_clf(SAMPLE)
    assert len(entries) == 2
    assert entries[0].path == "/maps/x.gif"
    assert entries[0].nbytes == 1500000
    assert entries[1].status == 404 and not entries[1].ok


def test_parse_skips_malformed_lines():
    text = SAMPLE + "garbage line that matches nothing\n"
    assert len(parse_clf(text)) == 2
    with pytest.raises(ValueError):
        parse_clf(text, strict=True)


def test_write_clf_from_run():
    cluster = SWEBCluster(meiko_cs2(2), policy="round-robin", seed=1)
    cluster.add_file("/a.html", 1e4, home=0)
    for _ in range(3):
        cluster.run(until=cluster.fetch("/a.html"))
    cluster.run(until=cluster.fetch("/missing.html"))
    log_text = write_clf(cluster.metrics.records)
    entries = parse_clf(log_text, strict=True)
    assert len(entries) == 4
    assert sum(1 for e in entries if e.status == 200) == 3
    assert sum(1 for e in entries if e.status == 404) == 1


def test_workload_from_clf_offsets():
    entries = parse_clf(SAMPLE)
    workload = workload_from_clf(entries)
    assert len(workload) == 2
    assert workload.arrivals[0].time == pytest.approx(0.0)
    assert workload.arrivals[1].time == pytest.approx(1.0)


def test_workload_from_clf_time_scale():
    entries = parse_clf(SAMPLE)
    workload = workload_from_clf(entries, time_scale=0.5)
    assert workload.arrivals[1].time == pytest.approx(0.5)
    with pytest.raises(ValueError):
        workload_from_clf(entries, time_scale=0.0)


def test_workload_from_clf_empty():
    workload = workload_from_clf([])
    assert len(workload) == 0


def test_full_loop_run_write_replay():
    """Run a scenario, dump its access log, replay the log as a new run."""
    corpus = uniform_corpus(6, 2e4, 2)
    wl = burst_workload(2, 3.0, uniform_sampler(corpus, RandomStreams(1)))
    first = run_scenario(Scenario(name="orig", spec=meiko_cs2(2),
                                  corpus=corpus, workload=wl, seed=1))
    log_text = write_clf(first.metrics.records, epoch=DEFAULT_EPOCH)
    replay = workload_from_clf(parse_clf(log_text, strict=True))
    assert len(replay) == first.metrics.total
    second = run_scenario(Scenario(name="replay", spec=meiko_cs2(2),
                                   corpus=corpus, workload=replay, seed=2))
    assert second.completed == first.completed
