"""Tests for the scenario runner and max-rps search."""

import pytest

from repro.cluster import meiko_cs2
from repro.experiments.runner import ScenarioResult, find_max_rps, run_scenario
from repro.sim import RandomStreams
from repro.workload import Scenario, burst_workload, uniform_corpus, uniform_sampler


def tiny_scenario(rps=2, duration=3.0, policy="sweb", n=2, size=1e4,
                  seed=1, **kw):
    spec = meiko_cs2(n)
    corpus = uniform_corpus(6, size, n)
    wl = burst_workload(rps, duration,
                        uniform_sampler(corpus, RandomStreams(seed)))
    return Scenario(name="tiny", spec=spec, corpus=corpus, workload=wl,
                    policy=policy, seed=seed, **kw)


def test_run_scenario_completes_all_requests():
    res = run_scenario(tiny_scenario())
    assert res.metrics.total == 6
    assert res.completed == 6
    assert res.drop_rate == 0.0
    assert res.mean_response_time > 0
    assert res.finished_at > 0
    assert res.offered_rps == pytest.approx(2.0)


def test_run_scenario_sustained_rps():
    res = run_scenario(tiny_scenario(rps=3, duration=4.0))
    assert res.metrics.completed / res.duration == pytest.approx(3.0)


def test_run_scenario_is_deterministic():
    r1 = run_scenario(tiny_scenario())
    r2 = run_scenario(tiny_scenario())
    assert r1.mean_response_time == r2.mean_response_time
    assert r1.cluster.sim.event_count == r2.cluster.sim.event_count


def test_result_accessors():
    res = run_scenario(tiny_scenario())
    assert 0.0 <= res.cache_hit_rate() <= 1.0
    assert 0.0 <= res.remote_read_fraction() <= 1.0
    assert 0.0 <= res.redirection_rate <= 1.0
    assert isinstance(res.cpu_shares(), dict)
    assert "preprocessing" in res.phase_means()
    assert "tiny" in res.summary_line()


def test_nan_client_timeout_fails_at_build_time():
    # Rejected when the clients are built, before any request is sent.
    with pytest.raises(ValueError, match="timeout must be finite"):
        run_scenario(tiny_scenario(client_timeout=float("nan")))


def test_unknown_client_in_workload_raises():
    sc = tiny_scenario()
    arrivals = sc.workload.arrivals
    arrivals[:] = [a._replace(client="mars") for a in arrivals]
    with pytest.raises(KeyError):
        run_scenario(sc)


def test_find_max_rps_locates_knee():
    # One node, tiny backlog, short timeout: low capacity for 1.5MB files.
    def factory(rps):
        return tiny_scenario(rps=rps, duration=5.0, n=1, size=1.5e6,
                             backlog=8, client_timeout=20.0)

    best, results = find_max_rps(factory, cap=32)
    assert 1 <= best < 32
    # The knee is real: best passes, best+1 (if evaluated) fails.
    assert results[best].drop_rate <= 0.02
    failing = [r for r in results if results[r].drop_rate > 0.02]
    assert failing and min(failing) == best + 1


def test_find_max_rps_returns_zero_when_start_fails():
    def factory(rps):
        return tiny_scenario(rps=rps, duration=5.0, n=1, size=1.5e6,
                             backlog=1, client_timeout=1.0)

    best, _ = find_max_rps(factory, start=4, cap=8)
    assert best == 0


def test_find_max_rps_hits_cap_when_nothing_fails():
    def factory(rps):
        return tiny_scenario(rps=rps, duration=2.0, n=2, size=100.0)

    best, _ = find_max_rps(factory, cap=4)
    assert best == 4


def test_find_max_rps_validation():
    with pytest.raises(ValueError):
        find_max_rps(lambda rps: tiny_scenario(), start=0)
