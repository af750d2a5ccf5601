"""Unit tests for deterministic random substreams (repro.sim.rng)."""

import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


# ------------------------------------------- draw for draw against numpy
class NumpyTwin:
    """The numpy call each draw helper stands for, one per helper, on
    generators seeded exactly as ``RandomStreams`` seeds its streams."""

    def __init__(self, seed):
        self.seed = seed
        self.gens = {}

    def stream(self, name):
        if name not in self.gens:
            key = zlib.crc32(name.encode("utf-8"))
            self.gens[name] = np.random.default_rng(
                np.random.SeedSequence([self.seed, key]))
        return self.gens[name]

    def uniform(self, name, low=0.0, high=1.0):
        return float(self.stream(name).uniform(low, high))

    def exponential(self, name, mean):
        return float(self.stream(name).exponential(mean))

    def integers(self, name, low, high):
        return int(self.stream(name).integers(low, high))

    def zipf_index(self, name, n, alpha=1.0):
        weights = np.arange(1, n + 1, dtype=float) ** (-alpha)
        weights /= weights.sum()
        return int(self.stream(name).choice(n, p=weights))


NAMES = ("s0", "s1", "s2")
_bound = st.floats(-1e6, 1e6)
_ops = st.one_of(
    st.tuples(st.just("zipf_index"), st.sampled_from((1, 2, 7, 50)),
              st.sampled_from((0.0, 0.8, 1.0, 1.3)) | st.floats(0.0, 3.0)),
    st.tuples(st.just("uniform"), st.none()),
    st.tuples(st.just("uniform"), st.tuples(_bound, _bound).map(sorted)),
    st.tuples(st.just("uniform"), _bound.map(lambda x: (x, x))),
    st.tuples(st.just("uniform"), st.tuples(
        st.integers(-10**6, 10**6), st.integers(0, 10**6)).map(
            lambda t: (t[0], t[0] + t[1]))),
    st.tuples(st.just("integers"), st.integers(-5, 5), st.integers(1, 2**40)),
    st.tuples(st.just("exponential"), st.floats(0.01, 100.0)),
)


def _apply(rs, op, name):
    kind = op[0]
    if kind == "zipf_index":
        return rs.zipf_index(name, op[1], alpha=op[2])
    if kind == "uniform":
        return rs.uniform(name) if op[1] is None else rs.uniform(name, *op[1])
    if kind == "integers":
        return rs.integers(name, op[1], op[1] + op[2])
    return rs.exponential(name, op[1])


def _outcome(rs, op, name):
    """The value and its type, or the exception's type and message."""
    try:
        value = _apply(rs, op, name)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("value", value, type(value))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(st.integers(0, 2), _ops), max_size=60),
       nstreams=st.integers(1, 3))
# sorted((0.0, -0.0)) keeps [0.0, -0.0]: a span of -0.0, which numpy
# rejects (``high - low < 0``); both sides must raise the same error.
@example(seed=0, steps=[(0, ("uniform", [0.0, -0.0]))], nstreams=1)
def test_draw_helpers_equal_numpy_draw_for_draw(seed, steps, nstreams):
    rs, twin = RandomStreams(seed), NumpyTwin(seed)
    for which, op in steps:
        name = NAMES[which % nstreams]
        got = _outcome(rs, op, name)
        want = _outcome(twin, op, name)
        assert got == want, (op, got, want)
    for name, gen in twin.gens.items():
        assert rs.stream(name).bit_generator.state == gen.bit_generator.state


# --------------------------------------- one size=k call, k single calls
_span = st.floats(0.0, 1e6)
_weights = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8).filter(
    lambda w: sum(w) > 0).map(lambda w: [x / sum(w) for x in w])
_BATCH_OPS = st.one_of(
    # small ranges take half a 64-bit draw; ranges just past 2**31 make
    # Lemire's method reject about half its draws; 2**32 and up take a
    # whole 64-bit draw each
    st.tuples(st.just("integers"), st.integers(-5, 5), st.one_of(
        st.integers(1, 2**40),
        st.integers(2**31 - 2**10, 2**31 + 2**10),
        st.integers(2**32, 2**33))),
    st.tuples(st.just("uniform"), st.none()),
    st.tuples(st.just("uniform"), st.tuples(_bound, _span).map(
        lambda t: (t[0], t[0] + t[1]))),
    st.tuples(st.just("zipf_index"), st.sampled_from((1, 2, 7, 50)),
              st.floats(0.0, 3.0)),
    st.tuples(st.just("choice"), _weights),
)
_ITEMS = tuple("abcdefgh")


def _draw(rs, op, name, size):
    """One helper call: a scalar for ``size=None``, else a list."""
    kind = op[0]
    if kind == "integers":
        got = rs.integers(name, op[1], op[1] + op[2], size=size)
    elif kind == "uniform":
        got = rs.uniform(name, *(op[1] or ()), size=size)
    elif kind == "zipf_index":
        got = rs.zipf_index(name, op[1], alpha=op[2], size=size)
    else:
        got = rs.choice(name, _ITEMS[:len(op[1])], p=op[1], size=size)
    return got if size is None or isinstance(got, list) else got.tolist()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), op=_BATCH_OPS,
       k=st.integers(0, 40), primed=st.booleans())
def test_one_batch_equals_k_single_draws(seed, op, k, primed):
    # a zipf table is fresh on both sides unless primed: then the single
    # calls all search it, else the first goes through numpy's choice
    one, batched = RandomStreams(seed), RandomStreams(seed)
    if primed:
        for rs in (one, batched):
            _draw(rs, op, "prime", None)
    singles = [_draw(one, op, "s", None) for _ in range(k)]
    got = _draw(batched, op, "s", k)
    assert got == singles
    assert [type(x) for x in got] == [type(x) for x in singles]
    assert (batched.stream("s").bit_generator.state
            == one.stream("s").bit_generator.state)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       runs=st.lists(st.tuples(_BATCH_OPS, st.integers(0, 12)), max_size=12))
def test_batches_run_by_run_over_a_mixed_stream(seed, runs):
    # one stream, several kinds: each run of one kind taken in one call
    # gives the single calls' values and leaves the same state, spare
    # 32-bit halves of small integer draws included
    one, batched = RandomStreams(seed), RandomStreams(seed)
    for op, k in runs:
        singles = [_draw(one, op, "mixed", None) for _ in range(k)]
        assert _draw(batched, op, "mixed", k) == singles, (op, k)
        assert (batched.stream("mixed").bit_generator.state
                == one.stream("mixed").bit_generator.state)


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _next_random_is(gen, u):
    """Set PCG64 ``gen`` so that its next ``random()`` returns ``u``.

    ``random()`` is ``(next_uint64() >> 11) * 2**-53``; PCG64 steps its
    128-bit state (``s * mult + inc``) and outputs ``hi ^ lo`` rotated
    right by the state's top six bits, left at zero here.
    """
    k = int(u * 2**53)
    assert k * 2.0**-53 == u
    hi = 0x0123456789ABCDEF >> 6
    stepped = (hi << 64) | (hi ^ (k << 11))
    state = gen.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = ((stepped - inc) * pow(_PCG64_MULT, -1, 1 << 128)
                               % (1 << 128))
    state["has_uint32"] = state["uinteger"] = 0
    gen.bit_generator.state = state
    assert gen.random() == u
    gen.bit_generator.state = state


def _raw_cdf_ends_below_one(n, alpha):
    weights = np.arange(1, n + 1, dtype=float) ** (-alpha)
    weights /= weights.sum()
    return weights.cumsum()[-1] < 1.0


def test_zipf_table_matches_numpy_on_edge_draws():
    # n=2, alpha=0: the table is [0.5, 1.0], and a draw of exactly 0.5 goes
    # past the entry (numpy's searchsorted(side="right")).
    # For n below, the summed weights end under one and only the divided
    # table keeps the largest double in the last bin.
    n = next(n for n in range(2, 100) if _raw_cdf_ends_below_one(n, 1.0))
    for n, alpha, u in ((2, 0.0, 0.5), (n, 1.0, 1.0 - 2.0**-53)):
        rs, twin = RandomStreams(3), NumpyTwin(3)
        draws = []
        for side in (rs, twin):
            side.zipf_index("edge", n, alpha)      # the table is now kept
            _next_random_is(side.stream("edge"), u)
            draws.append(side.zipf_index("edge", n, alpha))
        assert draws[0] == draws[1], (n, alpha, u, draws)


_NAN, _INF = float("nan"), float("inf")
BAD_CALLS = {
    "nan-alpha": lambda rs: rs.zipf_index("z", 7, alpha=_NAN),
    "negative-span": lambda rs: rs.uniform("u", 1.0, 0.5),
    "negative-zero-span": lambda rs: rs.uniform("u", 0.0, -0.0),
    "infinite-high": lambda rs: rs.uniform("u", 0.0, _INF),
    "infinite-bounds": lambda rs: rs.uniform("u", -_INF, _INF),
    "nan-bound": lambda rs: rs.uniform("u", _NAN, 1.0),
    "overflowing-span": lambda rs: rs.uniform("u", -1e308, 1e308),
    "huge-int-bound": lambda rs: rs.uniform("u", 0, 10**400),
    "string-bound": lambda rs: rs.uniform("u", "0.5", 1.0),
}


def _prime(rs):
    """Valid draws that leave a table cached on the streams used below."""
    rs.zipf_index("z", 7, alpha=1.0)
    rs.uniform("u", 0.0, 2.0)


@pytest.mark.parametrize("primed", [False, True], ids=["first", "primed"])
@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_bad_arguments_raise_numpy_errors_and_cache_nothing(case, primed):
    rs, twin = RandomStreams(11), NumpyTwin(11)
    if primed:
        _prime(rs)
        _prime(twin)
    with pytest.raises(Exception) as want:
        BAD_CALLS[case](twin)
    tables = dict(rs._zipf_cdfs)
    with pytest.raises(type(want.value)) as got:
        BAD_CALLS[case](rs)
    assert str(got.value) == str(want.value)
    assert rs._zipf_cdfs == tables
    for name, gen in twin.gens.items():
        assert rs.stream(name).bit_generator.state == gen.bit_generator.state
