"""Unit tests for deterministic random substreams (repro.sim.rng)."""

import numpy as np
import pytest

from repro.sim import RandomStreams


def test_same_seed_same_draws():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    assert [a.uniform("x") for _ in range(5)] == [b.uniform("x") for _ in range(5)]


def test_different_names_are_independent():
    rs = RandomStreams(seed=7)
    # Drawing from "a" must not perturb "b": interleave vs. not.
    rs2 = RandomStreams(seed=7)
    seq_b_alone = [rs2.uniform("b") for _ in range(5)]
    got = []
    for _ in range(5):
        rs.uniform("a")
        got.append(rs.uniform("b"))
    assert got == seq_b_alone


def test_different_seeds_differ():
    a = RandomStreams(seed=1)
    b = RandomStreams(seed=2)
    assert a.uniform("x") != b.uniform("x")


def test_stream_is_cached():
    rs = RandomStreams(seed=0)
    assert rs.stream("s") is rs.stream("s")


def test_integers_in_range():
    rs = RandomStreams(seed=0)
    draws = [rs.integers("i", 3, 9) for _ in range(200)]
    assert all(3 <= d < 9 for d in draws)
    assert set(draws) == set(range(3, 9))


def test_exponential_mean_roughly_right():
    rs = RandomStreams(seed=0)
    draws = [rs.exponential("e", 2.0) for _ in range(5000)]
    assert np.mean(draws) == pytest.approx(2.0, rel=0.1)


def test_choice_uniform_and_weighted():
    rs = RandomStreams(seed=0)
    items = ["a", "b", "c"]
    picks = [rs.choice("c1", items) for _ in range(300)]
    assert set(picks) == {"a", "b", "c"}
    skewed = [rs.choice("c2", items, p=[0.98, 0.01, 0.01]) for _ in range(300)]
    assert skewed.count("a") > 250


def test_zipf_index_skews_to_low_ranks():
    rs = RandomStreams(seed=0)
    draws = [rs.zipf_index("z", 100, alpha=1.2) for _ in range(2000)]
    assert all(0 <= d < 100 for d in draws)
    assert draws.count(0) > draws.count(50)


def test_zipf_rejects_empty():
    rs = RandomStreams(seed=0)
    with pytest.raises(ValueError):
        rs.zipf_index("z", 0)
