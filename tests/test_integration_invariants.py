"""Cross-cutting integration invariants on full scenario runs."""

import pytest

from repro.cluster import meiko_cs2
from repro.experiments.runner import run_scenario
from repro.experiments.table3 import run_cell
from repro.sim import RandomStreams
from repro.workload import Scenario, bimodal_corpus, burst_workload, uniform_sampler


@pytest.fixture(scope="module")
def loaded_run():
    corpus = bimodal_corpus(60, 4, large_frac=0.4, seed=3)
    wl = burst_workload(8, 8.0, uniform_sampler(corpus, RandomStreams(3)))
    scenario = Scenario(name="inv", spec=meiko_cs2(4), corpus=corpus,
                        workload=wl, policy="sweb", seed=3,
                        dns_ttl=300.0, hosts_per_profile=3)
    return run_scenario(scenario)


def test_every_request_settles(loaded_run):
    for rec in loaded_run.metrics.records:
        assert rec.end is not None
        assert rec.dropped or rec.status is not None


def test_phases_sum_to_response_time(loaded_run):
    for rec in loaded_run.metrics.records:
        if not rec.ok:
            continue
        assert sum(rec.phases.values()) == pytest.approx(rec.response_time,
                                                         rel=0.05)


def test_bytes_served_match_request_sizes(loaded_run):
    cluster = loaded_run.cluster
    ok_bytes = sum(rec.size for rec in loaded_run.metrics.records if rec.ok)
    # Every OK body crossed the Internet boundary at least once (plus
    # headers, redirects and retries make the wire total strictly bigger).
    assert cluster.internet.bytes_sent > ok_bytes


def test_served_by_is_a_real_node(loaded_run):
    n = len(loaded_run.cluster.nodes)
    for rec in loaded_run.metrics.records:
        if rec.ok:
            assert 0 <= rec.served_by < n
            assert 0 <= rec.dns_node < n


def test_redirected_requests_marked_consistently(loaded_run):
    for rec in loaded_run.metrics.records:
        if rec.ok and rec.redirected:
            assert rec.served_by != rec.dns_node
        if rec.ok and not rec.redirected:
            assert rec.served_by == rec.dns_node


def test_cpu_accounting_covers_all_activity(loaded_run):
    cats = loaded_run.cluster.cpu_seconds_by_category()
    assert set(cats) <= {"fork", "parsing", "scheduling", "send", "loadd",
                         "cgi"}
    assert cats["parsing"] > 0 and cats["send"] > 0


def test_simulated_clock_is_finite_and_past_workload(loaded_run):
    last_start = max(rec.start for rec in loaded_run.metrics.records)
    assert loaded_run.finished_at >= last_start


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweb_beats_round_robin_across_seeds(seed):
    """The Table 3 heavy-load win is not single-seed luck."""
    sweb = run_cell(30, "sweb", duration=10.0, seed=seed)
    rr = run_cell(30, "round-robin", duration=10.0, seed=seed)
    assert sweb.mean_response_time < rr.mean_response_time * 1.05
