"""Tests for configuration-file support (repro.config)."""

import json

import pytest

from repro.cli import main
from repro.cluster import TESTBEDS, meiko_cs2, sun_now
from repro.config import (
    SWEBConfig,
    cluster_spec_from_dict,
    cluster_spec_to_dict,
    cost_parameters_from_dict,
    cost_parameters_to_dict,
    dump_config,
    load_config,
)
from repro.core import CostParameters, Oracle


def test_cluster_spec_roundtrip():
    spec = meiko_cs2(4)
    data = cluster_spec_to_dict(spec)
    back = cluster_spec_from_dict(data)
    assert back == spec


def test_cluster_spec_from_preset():
    spec = cluster_spec_from_dict({"preset": "now", "nodes": 3})
    assert spec.name == "now" and spec.num_nodes == 3
    spec = cluster_spec_from_dict({"preset": "meiko"})
    assert spec.num_nodes == 6


class _Captured(Exception):
    """Raised by a stand-in run_scenario to hand back serve's scenario."""


@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
def test_every_testbed_builds_n_nodes_from_a_config_and_from_serve(
        testbed, monkeypatch):
    spec = cluster_spec_from_dict({"preset": testbed, "nodes": 5})
    assert spec.num_nodes == 5
    assert spec == TESTBEDS[testbed](5)
    # Without a count, the testbed's own default.
    assert cluster_spec_from_dict({"preset": testbed}) == TESTBEDS[testbed]()

    def capture(scenario):
        raise _Captured(scenario)

    monkeypatch.setattr("repro.experiments.runner.run_scenario", capture)
    with pytest.raises(_Captured) as got:
        main(["serve", "--testbed", testbed, "--nodes", "5", "--rps", "1",
              "--duration", "1"])
    assert got.value.args[0].spec == spec


def test_hetnow_cycles_the_now_speeds():
    spec = cluster_spec_from_dict({"preset": "hetnow", "nodes": 6})
    assert [node.cpu_speed for node in spec.nodes] == \
        [40e6, 25e6, 25e6, 10e6, 40e6, 25e6]
    assert cluster_spec_from_dict({"preset": "hetnow"}).num_nodes == 4


def test_cluster_spec_bad_preset():
    with pytest.raises(ValueError) as err:
        cluster_spec_from_dict({"preset": "cray"})
    for name in TESTBEDS:
        assert repr(name) in str(err.value)
    with pytest.raises(ValueError):
        cluster_spec_from_dict({"preset": "meiko", "nodes": 0})


def test_cost_parameters_roundtrip():
    params = CostParameters(delta=0.5, loadd_period=1.0)
    back = cost_parameters_from_dict(cost_parameters_to_dict(params))
    assert back == params


def test_cost_parameters_unknown_key_rejected():
    with pytest.raises(ValueError, match="turbo"):
        cost_parameters_from_dict({"turbo": True})


def test_load_config_from_dict():
    config = load_config({
        "cluster": {"preset": "meiko", "nodes": 2},
        "scheduler": {"delta": 0.4},
        "oracle": {"rules": [{"pattern": "*.tif", "ops_per_byte": 9.0}]},
        "server": {"policy": "round-robin", "seed": 5, "backlog": 32},
    })
    assert config.spec.num_nodes == 2
    assert config.params.delta == 0.4
    assert config.policy == "round-robin"
    assert config.seed == 5 and config.backlog == 32
    est = config.oracle.characterize("/m.tif", 10.0)
    assert est.cpu_ops == pytest.approx(90.0)


def test_load_config_defaults():
    config = load_config({})
    assert config.spec.num_nodes == 6
    assert config.policy == "sweb"


def test_load_config_from_json_string_and_file(tmp_path):
    text = json.dumps({"cluster": {"preset": "now", "nodes": 2}})
    config = load_config(text)
    assert config.spec.num_nodes == 2
    path = tmp_path / "sweb.json"
    path.write_text(text)
    config2 = load_config(path)
    assert config2.spec.num_nodes == 2


def test_load_config_rejects_non_object():
    with pytest.raises(ValueError):
        load_config("[1, 2, 3]")


def test_dump_load_roundtrip(tmp_path):
    config = SWEBConfig(spec=sun_now(3), params=CostParameters(delta=0.9),
                        oracle=Oracle(), policy="cpu-only", seed=9,
                        backlog=99, dns_ttl=30.0)
    path = tmp_path / "conf.json"
    dump_config(config, path)
    back = load_config(path)
    assert back.spec == config.spec
    assert back.params == config.params
    assert back.policy == "cpu-only"
    assert back.backlog == 99
    assert back.dns_ttl == 30.0


def test_config_build_produces_working_cluster():
    config = load_config({"cluster": {"preset": "meiko", "nodes": 2},
                          "server": {"seed": 3}})
    cluster = config.build()
    cluster.add_file("/x.html", 1e3, home=0)
    rec = cluster.run(until=cluster.fetch("/x.html"))
    assert rec.ok
