"""Tests for the scheduling layer (``repro.sched``) and the policy zoo.

Covers the registry/metadata contract, the heterogeneity (speed-factor)
model, rendezvous hashing, the fluid-model policy kernels — including
the golden-fingerprint pins that prove the strategy refactor did not
perturb the pre-zoo SWEB path by a single bit — and the cross-model
property claims the X11 tournament (docs/SCHEDULING.md) is built on:
po2 never loses to random, JSQ wins the homogeneous 2-node toy, and
the fluid and per-client models agree on the headline orderings.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import heterogeneous_meiko, meiko_cs2
from repro.core import make_policy
from repro.experiments.runner import run_scenario
from repro.experiments.tournament import (
    CLUSTERS,
    GOLDEN_SWEB_50K,
    POPULARITY,
    client_scenario,
    fluid_cell,
    make_cells,
)
from repro.sched import (
    MIXED_GENERATION,
    POLICIES,
    SpeedFactors,
    fluid_policy_names,
    policy_names,
    preference_order,
    rank_preferences,
    stable_hash64,
)
from repro.sim import RandomStreams
from repro.workload import FluidScenario, run_fluid


def _fluid_mean(result):
    return result.registry.histogram("fluid.latency_s").mean


# -- registry --------------------------------------------------------------

def test_registry_metadata_complete():
    assert set(policy_names()) == set(POLICIES)
    for name, info in POLICIES.items():
        assert info.name == name
        assert info.summary
        assert info.reads
        assert info.complexity


def test_registry_and_factory_agree():
    rng = RandomStreams(seed=3)
    for name in policy_names():
        policy = make_policy(name, rng=rng)
        assert policy.name == name
    with pytest.raises(ValueError):
        make_policy("frobnicator")


def test_fluid_names_subset_and_validated():
    assert set(fluid_policy_names()) <= set(policy_names())
    for name in fluid_policy_names():
        FluidScenario(name="ok", policy=name, n_requests=10).validate()
    with pytest.raises(ValueError):
        FluidScenario(name="bad", policy="cpu-only", n_requests=10).validate()


# -- speed factors ---------------------------------------------------------

def test_speed_factors_take_and_uniform():
    assert MIXED_GENERATION.num_nodes == 6
    assert not MIXED_GENERATION.homogeneous
    assert sum(MIXED_GENERATION.cpu) == pytest.approx(6.0)
    sub = MIXED_GENERATION.take(4)
    assert sub.num_nodes == 4
    assert sub.cpu == MIXED_GENERATION.cpu[:4]
    assert SpeedFactors.uniform(3).homogeneous
    with pytest.raises(ValueError):
        SpeedFactors(cpu=(1.0, -1.0), disk=(1.0, 1.0), mem=(1.0, 1.0))


def test_heterogeneous_meiko_scales_node_specs():
    hom = meiko_cs2(4)
    het = heterogeneous_meiko(4)
    factors = MIXED_GENERATION.take(4)
    assert het.name == "hetmeiko"
    for i, (h, x) in enumerate(zip(hom.nodes, het.nodes)):
        assert x.cpu_speed == pytest.approx(h.cpu_speed * factors.cpu[i])
        assert x.disk_bandwidth == pytest.approx(
            h.disk_bandwidth * factors.disk[i])
        assert x.mem_bandwidth == pytest.approx(
            h.mem_bandwidth * factors.mem[i])


def test_with_speed_factors_checks_length():
    with pytest.raises(ValueError):
        meiko_cs2(4).with_speed_factors(MIXED_GENERATION)  # 6 != 4


# -- rendezvous hashing ----------------------------------------------------

def test_stable_hash_is_stable_and_spread():
    assert stable_hash64("path-0") == stable_hash64("path-0")
    assert stable_hash64("path-0") != stable_hash64("path-1")


def test_preference_order_is_permutation():
    for key in ("a", "b", 17):
        order = preference_order(key, 5)
        assert sorted(order) == list(range(5))
    assert preference_order("a", 5) == preference_order("a", 5)
    prefs = rank_preferences(8, 4)
    assert len(prefs) == 8
    assert all(sorted(p) == list(range(4)) for p in prefs)
    # different keys spread their first choice around
    assert len({p[0] for p in prefs}) > 1


# -- golden fingerprints (bit-identity of the refactor) --------------------

GOLDEN_DEFAULT_50K = ("7a743f16064058ede5e5312f8e7c7f51"
                      "ff551719da6702e4466a58ace78cdb8a")
GOLDEN_UNIFORM_50K = ("19866200d49e9a194f7070c6c855d723"
                      "eb8ead718bb97fa91e5cf70357174409")
GOLDEN_2NODE_20K = ("f10c8478b3355083fa66fc7dc04bc471"
                    "0dbcbb1c0009ad845727316aa5f1e60f")


def test_default_sweb_fingerprint_is_pre_zoo():
    fp = run_fluid(FluidScenario(n_requests=50_000)).fingerprint
    assert fp == GOLDEN_DEFAULT_50K
    assert GOLDEN_SWEB_50K == GOLDEN_DEFAULT_50K


def test_uniform_popularity_fingerprint_is_pre_zoo():
    fp = run_fluid(FluidScenario(n_requests=50_000, alpha=None)).fingerprint
    assert fp == GOLDEN_UNIFORM_50K


def test_small_cluster_fingerprint_is_pre_zoo():
    fp = run_fluid(FluidScenario(nodes=2, rate=900.0,
                                 n_requests=20_000)).fingerprint
    assert fp == GOLDEN_2NODE_20K


#: every X11 cell at 5,000 requests, recorded before the fluid decision
#: loops gained their early exits; any change to a stepper's routing or
#: float arithmetic moves one of these
POLICY_GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "data"
     / "fluid_policy_goldens.json").read_text())


def test_policy_goldens_cover_the_tournament_grid():
    assert len(POLICY_GOLDENS) == 28
    assert set(POLICY_GOLDENS) == {
        f"tourney/{p}/{c}/{z}" for p in fluid_policy_names()
        for c in CLUSTERS for z in POPULARITY}


@pytest.mark.parametrize("cell_id", sorted(POLICY_GOLDENS))
def test_fluid_policy_fingerprint_is_pinned(cell_id):
    _, policy, cluster, popularity = cell_id.split("/")
    cell = fluid_cell(policy, cluster, popularity, n_requests=5_000)
    result = run_fluid(cell.scenario)
    assert {"fingerprint": result.fingerprint,
            "served": result.served,
            "redirected": result.redirected,
            "finished_at": result.finished_at.hex()} == POLICY_GOLDENS[cell_id]


# -- fluid policy kernels --------------------------------------------------

@pytest.mark.parametrize("policy", fluid_policy_names())
def test_fluid_policies_deterministic_on_het(policy):
    cell = fluid_cell(policy, "het", "zipf", n_requests=5_000)
    a = run_fluid(cell.scenario)
    b = run_fluid(cell.scenario)
    assert a.fingerprint == b.fingerprint
    assert a.served == b.served


@pytest.mark.parametrize("cluster", ("hom", "het"))
@pytest.mark.parametrize("popularity", ("uniform", "zipf"))
def test_po2_never_worse_than_random(cluster, popularity):
    """Two choices beat zero choices on every tournament grid cell."""
    def mean(policy):
        cell = fluid_cell(policy, cluster, popularity, n_requests=30_000)
        return _fluid_mean(run_fluid(cell.scenario))
    assert mean("po2") <= mean("random")


def test_jsq_wins_homogeneous_two_node_toy():
    """On 2 identical nodes JSQ is the optimal count-based rule."""
    def mean(policy):
        s = FluidScenario(name=f"toy-{policy}", nodes=2, rate=1_800.0,
                          n_requests=40_000, policy=policy, seed=7)
        return _fluid_mean(run_fluid(s))
    jsq = mean("jsq")
    for rival in ("round-robin", "random", "po2", "lwl"):
        assert jsq <= mean(rival), rival


# -- cross-model agreement -------------------------------------------------

def test_fluid_and_per_client_models_agree_on_headline_ordering():
    """Both models rank load-aware sweb/jsq above load-blind random."""
    def fmean(policy):
        cell = fluid_cell(policy, "het", "uniform", n_requests=30_000)
        return _fluid_mean(run_fluid(cell.scenario))

    def cmean(policy):
        return run_scenario(client_scenario(policy)).mean_response_time

    for mean in (fmean, cmean):
        random = mean("random")
        assert mean("sweb") < random
        assert mean("jsq") < random


# -- tournament grid structure ---------------------------------------------

def test_make_cells_covers_the_grid():
    cells = make_cells(1_000)
    assert len(cells) == len(fluid_policy_names()) * 4
    ids = [c.cell_id for c in cells]
    assert len(set(ids)) == len(ids)
    for cell in cells:
        cell.scenario.validate()
