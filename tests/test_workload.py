"""Unit tests for corpora and workload generators."""

import pytest

from repro.sim import RandomStreams
from repro.workload import (
    adl_corpus,
    burst_workload,
    hot_file_sampler,
    poisson_workload,
    single_hot_file,
    uniform_corpus,
    uniform_sampler,
    weighted_sampler,
    zipf_sampler,
)


# ------------------------------------------------------------------- corpora
def test_uniform_corpus_round_robin_placement():
    corpus = uniform_corpus(10, 1.5e6, n_nodes=4)
    assert len(corpus) == 10
    homes = [d.home for d in corpus.documents]
    assert homes == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
    assert corpus.total_bytes == pytest.approx(15e6)


def test_uniform_corpus_fixed_placement():
    corpus = uniform_corpus(5, 100.0, n_nodes=4, placement=2)
    assert all(d.home == 2 for d in corpus.documents)


def test_uniform_corpus_callable_placement():
    corpus = uniform_corpus(6, 100.0, n_nodes=3, placement=lambda i: i * 2)
    assert [d.home for d in corpus.documents] == [0, 2, 1, 0, 2, 1]


def test_uniform_corpus_random_placement_needs_rng():
    with pytest.raises(ValueError):
        uniform_corpus(5, 100.0, n_nodes=2, placement="random")
    corpus = uniform_corpus(50, 100.0, n_nodes=2, placement="random",
                            rng=RandomStreams(1))
    assert {d.home for d in corpus.documents} == {0, 1}


def test_corpus_rejects_empty_cluster():
    with pytest.raises(ValueError, match="n_nodes"):
        uniform_corpus(3, 1.0, 0)


def test_single_hot_file_shape():
    corpus = single_hot_file(size=1.5e6, home=3)
    assert len(corpus) == 1
    assert corpus.documents[0].home == 3


def test_adl_corpus_contents():
    corpus = adl_corpus(n_nodes=4, n_maps=10)
    assert len(corpus) == 1 + 3 * 10
    assert len(corpus.cgis) == 3
    exts = {p.rsplit(".", 1)[-1] for p in corpus.paths}
    assert {"gif", "tif", "html"} <= exts


def test_corpus_install_places_files_and_cgis():
    from repro import SWEBCluster, meiko_cs2
    corpus = adl_corpus(n_nodes=3, n_maps=3)
    cluster = SWEBCluster(meiko_cs2(3), start_loadd=False)
    corpus.install(cluster)
    assert len(cluster.fs) == len(corpus)
    assert "/cgi-bin/spatial-query" in cluster.cgi


def test_corpus_validation():
    with pytest.raises(ValueError):
        uniform_corpus(0, 1.0, 1)
    with pytest.raises(ValueError):
        uniform_corpus(1, -1.0, 1)


# ----------------------------------------------------------------- samplers
def test_uniform_sampler_covers_corpus():
    corpus = uniform_corpus(5, 1.0, 1)
    sample = uniform_sampler(corpus, RandomStreams(0))
    assert {sample() for _ in range(100)} == set(corpus.paths)


def test_zipf_sampler_skews():
    corpus = uniform_corpus(50, 1.0, 1)
    sample = zipf_sampler(corpus, RandomStreams(0), alpha=1.2)
    draws = [sample() for _ in range(500)]
    top = draws.count(corpus.paths[0])
    mid = draws.count(corpus.paths[25])
    assert top > mid


def test_hot_file_sampler_constant():
    sample = hot_file_sampler("/hot.gif")
    assert all(sample() == "/hot.gif" for _ in range(5))


def test_weighted_sampler_respects_weights():
    sample = weighted_sampler([("/a", 0.99), ("/b", 0.01)], RandomStreams(0))
    draws = [sample() for _ in range(200)]
    assert draws.count("/a") > 180


def test_sampler_validation():
    from repro.workload.corpus import Corpus
    empty = Corpus(name="empty")
    with pytest.raises(ValueError):
        uniform_sampler(empty, RandomStreams(0))
    with pytest.raises(ValueError):
        weighted_sampler([], RandomStreams(0))


# ----------------------------------------------------------------- workloads
def test_burst_workload_shape():
    corpus = uniform_corpus(3, 1.0, 1)
    wl = burst_workload(4, 3.0, uniform_sampler(corpus, RandomStreams(0)))
    assert len(wl) == 12
    times = [a.time for a in wl]
    assert times == sorted(times)
    # 4 simultaneous arrivals at each of t=0,1,2.
    assert times.count(0.0) == 4 and times.count(2.0) == 4
    assert wl.offered_rps == pytest.approx(4.0)


def test_burst_workload_client_mix():
    corpus = uniform_corpus(3, 1.0, 1)
    rng = RandomStreams(0)
    wl = burst_workload(10, 5.0, uniform_sampler(corpus, rng),
                        client_mix=[("ucsb", 0.8), ("rutgers", 0.2)], rng=rng)
    clients = {a.client for a in wl}
    assert clients == {"ucsb", "rutgers"}


def test_poisson_workload_rate():
    corpus = uniform_corpus(3, 1.0, 1)
    rng = RandomStreams(0)
    wl = poisson_workload(10.0, 100.0, uniform_sampler(corpus, rng), rng)
    assert len(wl) == pytest.approx(1000, rel=0.15)
    assert all(0 <= a.time < 100.0 for a in wl)


def test_workload_validation():
    corpus = uniform_corpus(3, 1.0, 1)
    sampler = uniform_sampler(corpus, RandomStreams(0))
    with pytest.raises(ValueError):
        burst_workload(0, 1.0, sampler)
    with pytest.raises(ValueError):
        burst_workload(1, 0.0, sampler)
    with pytest.raises(ValueError):
        poisson_workload(0.0, 1.0, sampler, RandomStreams(0))
    with pytest.raises(ValueError):
        burst_workload(1, 1.0, sampler, client_mix=[("a", 1.0)])


def test_client_mix_without_rng_raises_before_any_draw():
    # checked with the mix set-up, before the arrival loop: a duration
    # under one second, which yields no arrivals, raises too
    drawn = []

    def sampler():
        drawn.append(1)
        return "/f"

    for duration in (0.5, 3.0):
        with pytest.raises(ValueError, match="client_mix needs an rng"):
            burst_workload(2, duration, sampler, client_mix=[("a", 1.0)])
    assert drawn == []
