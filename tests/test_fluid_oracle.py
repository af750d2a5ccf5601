"""Differential test: the fluid decision loops against their reference.

``tests/fluid_reference.py`` holds the homogeneous ``sweb`` and the
``jsq`` steppers as they were before their loops gained early exits.
Each random cell runs through :func:`repro.workload.run_fluid` twice,
once with the real stepper factory and once with the reference one
swapped in, and the two runs must agree exactly: fingerprint, ``served``,
``redirected``, ``finished_at``, ``event_count`` and every record column.

The cells span 1–16 nodes, load from light to 1.5x overload, redirect
penalties of zero, one picosecond and the default, batches from 1 to
65,536, uniform and Zipf popularity and any hot-set size.  Tie-heavy
cells (zero-byte documents, a fixed CPU cost) make busy clocks and
scores collide exactly, which is where "first node that reaches the
minimum" matters.  A second test drives the steppers directly from
hand-built busy clocks a few ULPs apart, with service times large enough
to round neighbouring scores together, which random arrival streams
almost never produce.
"""

import math
from array import array
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.sim import RandomStreams
from repro.workload import FluidScenario, fluid as fluid_module, run_fluid

from .fluid_reference import reference_make_stepper


def _outcome(scenario: FluidScenario) -> dict:
    result = run_fluid(scenario)
    rec = result.records
    return {"fingerprint": result.fingerprint,
            "served": result.served,
            "redirected": result.redirected,
            "finished_at": result.finished_at.hex(),
            "event_count": result.event_count,
            "columns": (rec.arrivals.tobytes(), rec.latencies.tobytes(),
                        rec.nodes.tobytes(), rec.path_ranks.tobytes(),
                        rec.redirected.tobytes())}


def _assert_matches_reference(scenario: FluidScenario) -> None:
    fast = _outcome(scenario)
    with mock.patch.object(fluid_module, "_make_stepper",
                           reference_make_stepper):
        slow = _outcome(scenario)
    assert fast == slow


@st.composite
def _cells(draw):
    policy = draw(st.sampled_from(("sweb", "jsq")))
    nodes = draw(st.integers(min_value=1, max_value=16))
    n_paths = draw(st.integers(min_value=1, max_value=512))
    hot_set = draw(st.integers(min_value=0, max_value=n_paths))
    ties = draw(st.booleans())
    if ties:
        mean_bytes = 0.0
        t_cpu = draw(st.sampled_from((7e-4, 2.0 ** -10, 1e-3)))
    else:
        mean_bytes = draw(st.sampled_from((2e4, 1e3, 2e5)))
        t_cpu = draw(st.sampled_from((0.0, 7e-4)))
    disk_bps, mem_bps = 5e7, 4e8
    load = draw(st.floats(min_value=0.05, max_value=1.5))
    hot = hot_set / n_paths
    mean_s = t_cpu + mean_bytes * (hot / mem_bps + (1.0 - hot) / disk_bps)
    batch = draw(st.one_of(st.integers(min_value=1, max_value=64),
                           st.integers(min_value=1, max_value=4096),
                           st.just(65_536)))
    factors = None
    if policy == "jsq" and draw(st.booleans()):
        factor = st.sampled_from((0.5, 1.0, 1.5, 2.0))
        factors = tuple(draw(st.lists(factor, min_size=nodes,
                                      max_size=nodes)))
    return FluidScenario(
        name="oracle", policy=policy, nodes=nodes,
        rate=load * nodes / max(mean_s, 1e-4),
        n_requests=draw(st.integers(min_value=1, max_value=3_000)),
        n_paths=n_paths, hot_set=hot_set,
        alpha=draw(st.sampled_from((None, 0.0, 1.0, 2.0))),
        seed=draw(st.integers(min_value=0, max_value=2 ** 16)),
        mean_file_bytes=mean_bytes, t_cpu=t_cpu,
        t_redirect=draw(st.sampled_from((0.0, 1e-12, 4e-4))),
        disk_bps=disk_bps, mem_bps=mem_bps, batch=batch,
        cpu_factors=factors)


@settings(max_examples=150, deadline=None)
@given(_cells())
def test_steppers_match_reference(scenario):
    _assert_matches_reference(scenario)


@st.composite
def _stepper_cases(draw):
    """Start clocks, arrivals and services clustered within a few ULPs."""
    nodes = draw(st.integers(min_value=1, max_value=8))
    base = draw(st.sampled_from((0.0, 1.0, 1000.0, 2.0 ** 40)))
    unit = math.ulp(base) if base else math.ulp(1.0)
    near = st.integers(min_value=-4, max_value=4).map(
        lambda k: max(0.0, base + k * unit))
    service = draw(st.lists(
        st.sampled_from((0.0, unit, 1e-3, 0.5, base)),
        min_size=1, max_size=4))
    batches = draw(st.lists(
        st.lists(st.tuples(near, st.integers(min_value=0,
                                              max_value=len(service) - 1)),
                 min_size=1, max_size=40),
        min_size=1, max_size=3))
    return {"policy": draw(st.sampled_from(("sweb", "jsq"))),
            "nodes": nodes,
            "t_redirect": draw(st.sampled_from((0.0, 1e-12, unit, 4e-4))),
            "busy": draw(st.lists(near, min_size=nodes, max_size=nodes)),
            "service": service,
            "batches": batches}


def _drive_stepper(factory, case):
    scenario = FluidScenario(policy=case["policy"], nodes=case["nodes"],
                             t_redirect=case["t_redirect"])
    busy = list(case["busy"])
    served = [0] * case["nodes"]
    step = factory(scenario, RandomStreams(seed=1), case["service"], None,
                   busy, served)
    seen = []
    for batch in case["batches"]:
        # arrivals never decrease, within and across batches
        arrivals = sorted(a for a, _ in batch)
        floor = seen[-1][0][-1] if seen else 0.0
        arrivals = [a if a > floor else floor for a in arrivals]
        ranks = [rank for _, rank in batch]
        m = len(batch)
        lat = array("d", bytes(8 * m))
        node_col = array("i", bytes(4 * m))
        red_col = array("b", bytes(m))
        redirected = step(m, arrivals, ranks, lat, node_col, red_col)
        seen.append((arrivals, redirected, lat.tobytes(),
                     node_col.tobytes(), red_col.tobytes()))
    return seen, [x.hex() for x in busy], served


@settings(max_examples=400, deadline=None)
@given(_stepper_cases())
def test_steppers_match_reference_on_near_ties(case):
    assert (_drive_stepper(fluid_module._make_stepper, case)
            == _drive_stepper(reference_make_stepper, case))


def test_benchmark_cell_matches_reference():
    """The default 6-node Zipf cell at 5,000 rps (the ``fluid_zipf``
    benchmark cell), cut to 20,000 requests."""
    for policy in ("sweb", "jsq"):
        _assert_matches_reference(FluidScenario(
            policy=policy, n_requests=20_000, rate=5_000.0, seed=1000))


def test_overloaded_tie_cell_matches_reference():
    """Every document costs the same, so idle and equally busy nodes
    tie exactly; at 1.5x overload most requests are decided by a tie."""
    for policy in ("sweb", "jsq"):
        for t_redirect in (0.0, 4e-4):
            _assert_matches_reference(FluidScenario(
                policy=policy, nodes=5, mean_file_bytes=0.0, t_cpu=1e-3,
                rate=7_500.0, n_requests=6_000, batch=500,
                t_redirect=t_redirect))
