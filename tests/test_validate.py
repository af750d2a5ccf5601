"""Tests for the run-validation module (repro.experiments.validate)."""

import pytest

from repro.cluster import meiko_cs2, sun_now
from repro.experiments.runner import run_scenario
from repro.experiments.validate import (
    ValidationError,
    validate_result,
)
from repro.sim import RandomStreams
from repro.web import DROP_REASONS
from repro.workload import Scenario, bimodal_corpus, burst_workload, uniform_corpus, uniform_sampler


def healthy_run(policy="sweb", spec=None, **kw):
    spec = spec or meiko_cs2(3)
    corpus = bimodal_corpus(30, spec.num_nodes, large_frac=0.3, seed=2)
    wl = burst_workload(4, 5.0, uniform_sampler(corpus, RandomStreams(2)))
    return run_scenario(Scenario(name="v", spec=spec, corpus=corpus,
                                 workload=wl, policy=policy, seed=2, **kw))


@pytest.mark.parametrize("policy", ["round-robin", "file-locality", "sweb"])
def test_healthy_runs_validate(policy):
    result = healthy_run(policy)
    report = validate_result(result)
    assert report.ok
    assert {"settlement", "accounting", "causality", "placement",
            "conservation", "caches"} <= set(report.checks)


def test_run_with_drops_validates():
    # A deliberately overloaded single node: drops must not trip checks.
    spec = meiko_cs2(1)
    corpus = uniform_corpus(20, 1.5e6, 1)
    wl = burst_workload(12, 5.0, uniform_sampler(corpus, RandomStreams(2)))
    result = run_scenario(Scenario(name="v", spec=spec, corpus=corpus,
                                   workload=wl, policy="round-robin",
                                   seed=2, backlog=8, client_timeout=15.0))
    assert result.metrics.dropped > 0
    assert validate_result(result).ok


def test_now_testbed_validates():
    result = healthy_run(spec=sun_now(2))
    assert validate_result(result).ok


def test_violation_detected_and_raised():
    result = healthy_run()
    # Corrupt a record: claim it was served by a non-existent node.
    victim = next(r for r in result.metrics.records if r.ok)
    victim.served_by = 99
    with pytest.raises(ValidationError, match="served_by"):
        validate_result(result)
    report = validate_result(result, strict=False)
    assert not report.ok
    assert any("served_by" in v for v in report.violations)


def test_unmarked_move_detected():
    result = healthy_run()
    victim = next(r for r in result.metrics.records
                  if r.ok and not r.redirected)
    victim.served_by = (victim.dns_node + 1) % 3
    report = validate_result(result, strict=False)
    assert any("without being marked redirected" in v
               for v in report.violations)


def test_dangling_request_detected():
    result = healthy_run()
    result.metrics.records[0].end = None
    report = validate_result(result, strict=False)
    assert any("never settled" in v for v in report.violations)


def test_crash_fault_run_validates():
    # A node crash resets requests mid-flight: "reset" is a drop reason
    # the client really records, so the run must validate.
    spec = meiko_cs2(3)
    corpus = uniform_corpus(30, 1.5e6, 3)
    wl = burst_workload(10, 10.0, uniform_sampler(corpus, RandomStreams(2)))
    result = run_scenario(Scenario(name="v", spec=spec, corpus=corpus,
                                   workload=wl, seed=2, faults="crash:n1@3"))
    reasons = [r.drop_reason for r in result.metrics.records if r.dropped]
    assert {reason: reasons.count(reason) for reason in set(reasons)} == {
        "refused": 27, "reset": 10}
    report = validate_result(result, strict=False)
    assert report.violations == []
    assert set(reasons) <= set(DROP_REASONS)
