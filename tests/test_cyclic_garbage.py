"""No run leaves cyclic garbage behind.

Every object a run creates and drops must be freed by reference counting:
the cyclic collector's time is host time per request, and at the rates of
the benchmark workloads a reference cycle per request (a fair-share job
that held itself as its value did) costs whole gen-2 collections.  Each
run here goes with the collector disabled; ``gc.collect()`` afterwards
must find nothing unreachable.
"""

import gc

import pytest

from repro.cluster import meiko_cs2
from repro.core.costmodel import CostParameters
from repro.experiments.cache_coop import hot_cold_corpus
from repro.experiments.runner import run_scenario
from repro.geo import GeoScenario, run_geo
from repro.sim import RandomStreams
from repro.workload import (
    Scenario,
    bimodal_corpus,
    burst_workload,
    uniform_sampler,
    zipf_sampler,
)


def _meiko():
    corpus = bimodal_corpus(30, 6, large_frac=0.5, seed=4)
    return run_scenario(Scenario(
        name="gc-meiko", spec=meiko_cs2(6), corpus=corpus,
        workload=burst_workload(
            25, 4.0, uniform_sampler(corpus, RandomStreams(seed=7))),
        policy="sweb", seed=3))


def _coop():
    corpus = hot_cold_corpus(4)
    return run_scenario(Scenario(
        name="gc-coop", spec=meiko_cs2(4), corpus=corpus,
        workload=burst_workload(
            6, 10.0, zipf_sampler(corpus, RandomStreams(seed=17), alpha=1.0,
                                  hot_set=16, tail_weight=0.25)),
        policy="sweb", seed=9,
        params=CostParameters(coop_cache=True, replicate=True,
                              cache_hot_set=16, replication_period=1.0,
                              replication_skew=1.0,
                              replication_max_per_cycle=8)))


def _geo():
    return run_geo(GeoScenario(
        name="gc-geo", n_files=24, hot_files=6, file_bytes=6e4, rps=18.0,
        duration=4.0, seed=21, graceful=True, edge_budget_bytes=4e6))


@pytest.mark.parametrize("run", [_meiko, _coop, _geo],
                         ids=["meiko", "coop", "geo"])
def test_run_leaves_no_cyclic_garbage(run):
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run()
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert result is not None
    assert unreachable == 0
