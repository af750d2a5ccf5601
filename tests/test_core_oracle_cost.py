"""Unit tests for the oracle and the multi-faceted cost model."""

import pytest

from repro.core import CostModel, CostParameters, LoadSnapshot, Oracle, OracleRule
from repro.core.oracle import TaskEstimate
from repro.web import CGIRegistry


def snap(node=0, cpu=0.0, disk=0.0, net=0.0, speed=40e6, disk_bw=5e6, t=0.0):
    return LoadSnapshot(node=node, cpu_load=cpu, disk_load=disk, net_load=net,
                        cpu_speed=speed, disk_bandwidth=disk_bw, timestamp=t)


# ------------------------------------------------------------------- Oracle
def test_oracle_static_file_estimate_scales_with_size():
    oracle = Oracle()
    small = oracle.characterize("/a.html", 1e3)
    big = oracle.characterize("/b.html", 1e6)
    assert big.cpu_ops > small.cpu_ops
    assert big.disk_bytes == 1e6
    assert big.output_bytes == 1e6
    assert not big.is_cgi


def test_oracle_rule_order_first_match_wins():
    rules = [
        OracleRule(pattern="/special/*", ops_per_byte=9.0, base_ops=100.0),
        OracleRule(pattern="*", ops_per_byte=1.0),
    ]
    oracle = Oracle(rules=rules)
    est = oracle.characterize("/special/x.bin", 10.0)
    assert est.cpu_ops == pytest.approx(100.0 + 90.0)
    est2 = oracle.characterize("/other.bin", 10.0)
    assert est2.cpu_ops == pytest.approx(10.0)


def test_oracle_always_has_catchall():
    oracle = Oracle(rules=[OracleRule(pattern="*.html", ops_per_byte=1.0)])
    est = oracle.characterize("/weird.xyz", 4.0)
    assert est.cpu_ops > 0


def test_oracle_cgi_estimate_from_registry():
    reg = CGIRegistry()
    reg.add("/cgi-bin/q", cpu_ops=7e6, output_bytes=2e4)
    oracle = Oracle(cgi_registry=reg)
    est = oracle.characterize("/cgi-bin/q", 0.0)
    assert est.is_cgi
    assert est.cpu_ops == 7e6
    assert est.output_bytes == 2e4
    assert est.disk_bytes == 0.0


def test_oracle_estimate_built_once_per_file():
    oracle = Oracle()
    first = oracle.characterize("/a.html", 1e3)
    assert oracle.characterize("/a.html", 1e3) is first
    # A different size is a different file state: its own estimate.
    assert oracle.characterize("/a.html", 2e3).disk_bytes == 2e3


def test_setting_rules_after_characterize_takes_effect():
    oracle = Oracle(rules=[OracleRule(pattern="*", ops_per_byte=1.0)])
    assert oracle.characterize("/a.html", 100.0).cpu_ops == 100.0
    oracle.rules = (OracleRule(pattern="*.html", ops_per_byte=2.0,
                               base_ops=5.0),
                    OracleRule(pattern="*", ops_per_byte=1.0))
    assert oracle.characterize("/a.html", 100.0).cpu_ops == 205.0
    assert oracle.characterize("/b.txt", 100.0).cpu_ops == 100.0


def test_cgi_estimates_follow_the_registry():
    reg = CGIRegistry()
    reg.add("/cgi-bin/q", cpu_ops=7e6, output_bytes=2e4)
    oracle = Oracle(cgi_registry=reg)
    assert oracle.characterize("/cgi-bin/q", 0.0).cpu_ops == 7e6
    reg.add("/cgi-bin/q", cpu_ops=9e6, output_bytes=2e4)
    assert oracle.characterize("/cgi-bin/q", 0.0).cpu_ops == 9e6


def test_adaptive_oracle_override_is_not_memoised():
    from repro.core import AdaptiveOracle
    oracle = AdaptiveOracle(rules=[OracleRule(pattern="*", ops_per_byte=1.0)],
                            alpha=1.0, min_observations=1)
    assert oracle.characterize("/a.gif", 100.0).cpu_ops == 100.0
    oracle.observe("/a.gif", 100.0, 600.0)
    assert oracle.characterize("/a.gif", 100.0).cpu_ops == 600.0
    # The static table's estimate is unchanged underneath.
    assert Oracle.characterize(oracle, "/a.gif", 100.0).cpu_ops == 100.0


def test_oracle_from_config():
    oracle = Oracle.from_config(
        {"rules": [{"pattern": "*.tif", "ops_per_byte": 0.5, "base_ops": 10}]})
    est = oracle.characterize("/m.tif", 100.0)
    assert est.cpu_ops == pytest.approx(10 + 50.0)


# --------------------------------------------------------------- Cost model
def test_t_redirection_zero_for_local():
    cm = CostModel(CostParameters(connect_time=5e-3,
                                  assumed_client_latency=None))
    assert cm.t_redirection(candidate=0, local=0, client_latency=0.04) == 0.0
    assert cm.t_redirection(candidate=1, local=0, client_latency=0.04) == \
        pytest.approx(2 * 0.04 + 5e-3)


def test_t_redirection_hand_coded_latency_overrides_measured():
    # "the estimate of the link latency … is hand-coded into the server".
    cm = CostModel(CostParameters(connect_time=5e-3,
                                  assumed_client_latency=0.03))
    assert cm.t_redirection(candidate=1, local=0, client_latency=0.4) == \
        pytest.approx(2 * 0.03 + 5e-3)


def test_t_data_local_vs_remote():
    cm = CostModel(net_bandwidth=40e6)
    est = TaskEstimate(cpu_ops=0, disk_bytes=1.5e6, output_bytes=1.5e6)
    local = cm.t_data(est, candidate=snap(node=0), home=snap(node=0),
                      file_home=0)
    assert local == pytest.approx(1.5e6 / 5e6)
    remote = cm.t_data(est, candidate=snap(node=1), home=snap(node=0),
                       file_home=0)
    # Remote: min(disk 5 MB/s, net 40 MB/s) = disk.
    assert remote == pytest.approx(1.5e6 / 5e6)


def test_t_data_degrades_with_disk_load():
    cm = CostModel()
    est = TaskEstimate(cpu_ops=0, disk_bytes=1e6, output_bytes=1e6)
    idle = cm.t_data(est, candidate=snap(node=0, disk=0), home=None, file_home=0)
    busy = cm.t_data(est, candidate=snap(node=0, disk=3), home=None, file_home=0)
    assert busy == pytest.approx(idle * 4)


def test_t_data_remote_limited_by_congested_network():
    cm = CostModel(net_bandwidth=10e6)
    est = TaskEstimate(cpu_ops=0, disk_bytes=1e6, output_bytes=1e6)
    # Candidate's port has 9 transfers in flight: 1 MB/s effective < disk.
    cost = cm.t_data(est, candidate=snap(node=1, net=9),
                     home=snap(node=0), file_home=0)
    assert cost == pytest.approx(1e6 / 1e6)


def test_t_cpu_scales_with_load_and_speed():
    cm = CostModel(CostParameters(fork_ops=0.0, preprocess_ops=0.0))
    est = TaskEstimate(cpu_ops=4e6, disk_bytes=0, output_bytes=0)
    idle = cm.t_cpu(est, snap(cpu=0.0, speed=40e6))
    assert idle == pytest.approx(0.1)
    loaded = cm.t_cpu(est, snap(cpu=3.0, speed=40e6))
    assert loaded == pytest.approx(0.4)
    slow = cm.t_cpu(est, snap(cpu=0.0, speed=10e6))
    assert slow == pytest.approx(0.4)


def test_t_cpu_remote_candidate_pays_refork_and_reparse():
    # A redirected request is forked and parsed again at the target, so a
    # non-local candidate carries those ops — the broker's hysteresis.
    cm = CostModel(CostParameters(fork_ops=4e5, preprocess_ops=2.4e6))
    est = TaskEstimate(cpu_ops=4e6, disk_bytes=0, output_bytes=0)
    local = cm.t_cpu(est, snap(cpu=0.0, speed=40e6), local=True)
    remote = cm.t_cpu(est, snap(cpu=0.0, speed=40e6), local=False)
    assert local == pytest.approx(0.1)
    assert remote == pytest.approx(0.1 + (4e5 + 2.4e6) / 40e6)


def test_t_net_disabled_by_default():
    cm = CostModel()
    est = TaskEstimate(cpu_ops=0, disk_bytes=0, output_bytes=1e6)
    assert cm.t_net(est) == 0.0
    cm2 = CostModel(CostParameters(use_net_term=True, internet_bandwidth=1e6))
    assert cm2.t_net(est) == pytest.approx(1.0)


def test_knockout_flags():
    params = CostParameters(use_data_term=False, use_cpu_term=False,
                            use_redirection_term=False)
    cm = CostModel(params)
    est = TaskEstimate(cpu_ops=1e9, disk_bytes=1e9, output_bytes=1e9)
    full = cm.estimate(est, snap(node=1, cpu=10, disk=10), snap(node=0),
                       file_home=0, local=0, client_latency=1.0)
    assert full.total == 0.0


def test_estimate_totals_terms():
    cm = CostModel()
    est = TaskEstimate(cpu_ops=1e6, disk_bytes=1e6, output_bytes=1e6)
    out = cm.estimate(est, snap(node=1), snap(node=0), file_home=0,
                      local=0, client_latency=0.002)
    assert out.total == pytest.approx(
        out.t_redirection + out.t_data + out.t_cpu + out.t_net)
    assert out.node == 1


def test_cost_parameters_validation():
    with pytest.raises(ValueError):
        CostParameters(delta=-0.1)
    with pytest.raises(ValueError):
        CostParameters(max_redirects=-1)
    with pytest.raises(ValueError):
        CostParameters(loadd_period=0.0)
