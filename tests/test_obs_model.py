"""Property tests for the span model (docs/TRACING.md).

Hypothesis drives two generators:

* random well-formed span trees built through the :class:`Tracer` API —
  nesting, monotone timestamps, child-sum and breakdown-reconciliation
  invariants must hold by construction;
* random *small scenarios* through the full stack — every completed
  request's trace must validate cleanly and its stage sums must
  reconcile with the terminal ``RequestRecord`` latency.

Plus direct negative tests: hand-built malformed traces must be caught
by :meth:`RequestTrace.problems`.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import STAGES, Span, Tracer

#: The roll-up stages child spans may carry (``other`` is synthesized).
CHILD_STAGES = tuple(s for s in STAGES if s != "other")


# -- random well-formed trees via the Tracer API --------------------------

@st.composite
def _sub_intervals(draw, start, end, max_children=3):
    """Up to ``max_children`` disjoint, ordered (a, b) inside [start, end]."""
    n = draw(st.integers(0, max_children))
    if n == 0 or end - start <= 0:
        return []
    cuts = sorted(draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        min_size=2 * n, max_size=2 * n)))
    width = end - start
    return [(start + width * cuts[2 * i], start + width * cuts[2 * i + 1])
            for i in range(n)]


@st.composite
def span_tree(draw):
    """A tracer holding one structurally-valid random request trace."""
    tracer = Tracer()
    t0 = draw(st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))
    duration = draw(st.floats(0.0, 1e3, allow_nan=False,
                              allow_infinity=False))
    root = tracer.begin(0, "/doc", "ucsb", t0)

    def grow(parent, start, end, depth):
        for (a, b) in draw(_sub_intervals(start, end)):
            stage = draw(st.sampled_from(CHILD_STAGES))
            node = draw(st.one_of(st.none(), st.integers(0, 5)))
            child = tracer.start(parent, f"op{depth}", a, stage, node=node)
            if depth < 2:
                grow(child, a, b, depth + 1)
            tracer.finish(child, b)

    grow(root, t0, t0 + duration, 0)
    tracer.finish(root, t0 + duration)
    return tracer


@given(span_tree())
@settings(max_examples=120, deadline=None)
def test_generated_trees_satisfy_all_invariants(tracer):
    trace = tracer.get(0)
    assert trace.problems() == []
    root = trace.root
    assert root is not None and root.parent_id is None
    for span in trace:
        # monotone sim-clock timestamps
        assert span.closed and span.end >= span.start
        # children sum to at most their parent
        kids = trace.children(span)
        assert sum(k.duration for k in kids) <= span.duration + 1e-9
    # stage totals never exceed the root duration...
    totals = trace.stage_totals()
    assert sum(totals.values()) <= root.duration + 1e-9
    assert set(totals) <= set(CHILD_STAGES)
    # ...and the breakdown reconciles exactly with any terminal latency.
    breakdown = trace.breakdown()
    assert sum(breakdown.values()) == pytest.approx(root.duration)
    assert trace.reconciles(root.duration)
    latency = root.duration * 2 + 1.0
    assert sum(trace.breakdown(latency).values()) == pytest.approx(latency)


# -- malformed traces are caught ------------------------------------------

def _flat(tracer, req_id=0):
    root = tracer.begin(req_id, "/x", "c", 0.0)
    return root


def test_overlapping_siblings_detected():
    tracer = Tracer()
    root = _flat(tracer)
    a = tracer.start(root, "a", 1.0, "analysis")
    tracer.finish(a, 5.0)
    b = tracer.start(root, "b", 4.0, "network")
    tracer.finish(b, 6.0)
    tracer.finish(root, 10.0)
    assert any("overlap" in p for p in tracer.get(0).problems())


def test_child_escaping_parent_detected():
    tracer = Tracer()
    root = _flat(tracer)
    child = tracer.start(root, "c", 1.0, "analysis")
    tracer.finish(root, 2.0)
    tracer.finish(child, 3.0)           # outruns the closed root
    assert any("escapes" in p for p in tracer.get(0).problems())


def test_unclosed_span_detected():
    tracer = Tracer()
    root = _flat(tracer)
    tracer.start(root, "open", 1.0, "analysis")
    tracer.finish(root, 2.0)
    assert any("never closed" in p for p in tracer.get(0).problems())


def test_backwards_span_detected():
    tracer = Tracer()
    root = _flat(tracer)
    bad = tracer.start(root, "bad", 5.0, "analysis")
    tracer.finish(bad, 1.0)
    tracer.finish(root, 10.0)
    assert any("ends before" in p for p in tracer.get(0).problems())


def test_children_over_parent_budget_detected():
    # Two non-overlapping children can still sum past a parent whose
    # interval they escape — the sum check needs the nesting check.
    tracer = Tracer()
    root = _flat(tracer)
    tracer.finish(root, 1.0)
    a = tracer.start(root, "a", 0.0, "analysis")
    tracer.finish(a, 0.8)
    b = tracer.start(root, "b", 0.9, "network")
    tracer.finish(b, 2.0)
    problems = tracer.get(0).problems()
    assert any("sum past" in p for p in problems)


def test_empty_trace_has_no_root_and_flags_it():
    from repro.obs.spans import RequestTrace

    trace = RequestTrace(0, "/x")
    assert trace.root is None
    assert len(trace) == 0
    assert trace.stage_totals() == {}
    assert trace.breakdown() == {"other": 0.0}
    assert any("found 0" in p for p in trace.problems())


def test_two_roots_detected():
    tracer = Tracer()
    root = _flat(tracer)
    tracer.finish(root, 1.0)
    second = Span(span_id=998, req_id=0, parent_id=None, name="again",
                  stage="request", start=0.0, end=1.0)
    tracer.get(0).add(second)
    assert any("found 2" in p for p in tracer.get(0).problems())


def test_reconciles_rejects_latency_below_stage_cover():
    tracer = Tracer()
    root = _flat(tracer)
    work = tracer.start(root, "work", 0.0, "data_transfer")
    tracer.finish(work, 5.0)
    tracer.finish(root, 5.0)
    trace = tracer.get(0)
    assert trace.reconciles(5.0)
    assert not trace.reconciles(1.0)    # stages cover more than claimed


def test_foreign_parent_span_is_ignored():
    one, two = Tracer(), Tracer()
    root = one.begin(0, "/x", "c", 0.0)
    # a handle from another tracer (unknown req_id here) is a no-op
    assert two.start(root, "x", 0.0, "analysis") is None


def test_reprs_are_informative():
    tracer = Tracer(max_requests=3)
    root = tracer.begin(0, "/x", "c", 0.0)
    assert "request" in repr(root)
    tracer.finish(root, 1.0)
    assert "spans=1" in repr(tracer.get(0))
    assert "traces=1/3" in repr(tracer)
    assert "∞" in repr(Tracer())


def test_missing_root_and_unknown_parent_detected():
    tracer = Tracer()
    root = tracer.begin(0, "/x", "c", 0.0)
    orphan = Span(span_id=999, req_id=0, parent_id=12345, name="orphan",
                  stage="analysis", start=0.1, end=0.2)
    tracer.get(0).add(orphan)
    tracer.finish(root, 1.0)
    assert any("unknown parent" in p for p in tracer.get(0).problems())


# -- sampling and the None-tolerant API -----------------------------------

def test_head_sampling_bounds_trace_count():
    tracer = Tracer(max_requests=2)
    assert tracer.begin(0, "/a", "c", 0.0) is not None
    assert tracer.begin(1, "/b", "c", 0.0) is not None
    assert tracer.begin(2, "/c", "c", 0.0) is None
    assert len(tracer) == 2
    assert [t.req_id for t in tracer.traces()] == [0, 1]


def test_disabled_tracer_collects_nothing():
    tracer = Tracer(max_requests=0)
    root = tracer.begin(0, "/a", "c", 0.0)
    assert root is None
    # Every downstream call must be a no-op, not a crash.
    child = tracer.start(root, "x", 0.0, "analysis")
    assert child is None
    tracer.finish(child, 1.0)
    tracer.annotate(child, k=1)
    assert len(tracer) == 0


def test_negative_sampling_cap_rejected():
    with pytest.raises(ValueError):
        Tracer(max_requests=-1)


def test_span_tags_flow_through_start_finish_annotate():
    tracer = Tracer()
    root = tracer.begin(7, "/d", "rutgers", 1.0)
    child = tracer.start(root, "dns", 1.0, "network", node=3, attempt=1)
    tracer.annotate(child, cache_hit=True)
    tracer.finish(child, 1.5, address=4)
    assert child.tags == {"attempt": 1, "cache_hit": True, "address": 4}
    assert child.node == 3
    assert tracer.get(7).get(child.span_id) is child


# -- full-stack: random small scenarios reconcile -------------------------

def _run_traced_scenario(seed):
    from repro.experiments.runner import run_scenario
    from repro.cluster import meiko_cs2
    from repro.experiments.table1 import table1_scenario

    scenario = table1_scenario(meiko_cs2(3), 1.5e6, 6, 3.0, seed=seed)
    scenario = replace(scenario, tracer=Tracer())
    result = run_scenario(scenario)
    return scenario.tracer, result


@given(seed=st.integers(0, 6))
@settings(max_examples=4, deadline=None)
def test_scenario_traces_validate_and_reconcile(seed):
    tracer, result = _run_traced_scenario(seed)
    checked = 0
    for rec in result.metrics.records:
        trace = tracer.get(rec.req_id)
        assert trace is not None           # no cap: every request traced
        if not rec.ok:
            continue
        checked += 1
        assert trace.problems() == []
        assert trace.reconciles(rec.response_time), (
            rec.req_id, trace.stage_totals(), rec.response_time)
        # the root span *is* the client-observed response time
        assert trace.root.duration == pytest.approx(rec.response_time)
    assert checked > 0


test_scenario_traces_validate_and_reconcile.__coverage_gate_skip__ = True
