"""Tests for the report generator, balance index, and disk seek latency."""

import pytest

from repro.cluster import Disk, meiko_cs2
from repro.experiments.report import generate_report
from repro.experiments.runner import run_scenario
from repro.sim import RandomStreams, Simulator
from repro.workload import Scenario, burst_workload, uniform_corpus, uniform_sampler


# ----------------------------------------------------------------- report
def test_generate_report_subset(tmp_path):
    out = tmp_path / "EXP.md"
    text, all_hold = generate_report(fast=True, output=out,
                                     experiment_ids=["F1", "X4"])
    assert all_hold
    assert out.exists()
    content = out.read_text()
    assert content == text
    assert "## F1 —" in content and "## X4 —" in content
    assert "2/2 artifacts pass" in content
    assert "Fidelity policy" in content


def test_generate_report_cli(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "R.md"
    code = main(["report", "-o", str(out), "--only", "f1"])
    assert code == 0
    assert "all shape checks hold: True" in capsys.readouterr().out
    assert out.exists()


# -------------------------------------------------------------- balance
def _run(policy, **kw):
    corpus = uniform_corpus(12, 1e5, 3)
    wl = burst_workload(3, 4.0, uniform_sampler(corpus, RandomStreams(1)))
    return run_scenario(Scenario(name="bal", spec=meiko_cs2(3),
                                 corpus=corpus, workload=wl, policy=policy,
                                 seed=1, **kw))


def test_balance_index_bounds():
    res = _run("round-robin")
    idx = res.balance_index()
    assert 1.0 / 3.0 <= idx <= 1.0


def test_balance_index_detects_concentration():
    # All requests to one pinned host -> one node serves everything.
    res = _run("round-robin", hosts_per_profile=1, dns_ttl=1000.0)
    assert res.balance_index() == pytest.approx(1.0 / 3.0, abs=0.01)


def test_balance_index_empty_run_is_one():
    from repro.experiments.runner import ScenarioResult
    res = _run("round-robin")
    res.metrics.records.clear()
    assert res.balance_index() == 1.0


# ------------------------------------------------------------ disk reads
def test_seek_latency_zero_is_pure_bandwidth():
    sim = Simulator()
    disk = Disk(sim, bandwidth=5e6)
    log = []

    def go():
        yield disk.read(5e6)
        log.append(sim.now)

    sim.spawn(go())
    sim.run()
    assert log == [pytest.approx(1.0)]
