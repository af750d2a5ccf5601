"""Differential test: the one-pass broker against its reference.

``tests/broker_reference.py`` holds the broker, cost model, rule scan and
candidate walk that preceded one-pass pricing.  Both brokers make the same
random sequence of decisions, each over its own copy of the same load
view, and must agree exactly: the chosen node and task, the ``repr`` of
every per-candidate term, the Δ-inflated view afterwards, the
``decisions``/``redirections``/``fallbacks`` counters, the trace lines and
the cache-directory questions asked.

The inputs cover stale and suspected peers, with and without a local
probe, graceful degradation on and off; files that are missing, local,
remote (home known or stale) or across the WAN; directory answers; every
``use_*_term`` knockout; ``assumed_client_latency`` set or ``None``;
custom rule tables and CGI paths; and both :class:`Oracle` and
:class:`AdaptiveOracle`.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.filesystem import FileMeta
from repro.core import (AdaptiveOracle, Broker, ClusterView, CostModel,
                        CostParameters, LoadSnapshot, Oracle, OracleRule)
from repro.obs import Tracer
from repro.sim import Simulator
from repro.web.cgi import CGIRegistry

from .broker_reference import (ReferenceAdaptiveOracle, ReferenceBroker,
                               ReferenceCostModel, ReferenceOracle)

PATHS = ("/a.html", "/b.gif", "/c.txt", "/d1.tif", "/e.bin", "/f.html",
         "/cgi-bin/q", "/missing.html")
PATTERNS = ("*.html", "*.gif", "*.txt", "/d*", "*[0-9]*", "*.b?n", "*")


class _FS:
    """Just the two file-system queries the broker makes."""

    def __init__(self, files: dict) -> None:
        self.files = files

    def exists(self, path: str) -> bool:
        return path in self.files

    def locate(self, path: str) -> FileMeta:
        return self.files[path]


class _Directory:
    """Cache-directory answers from a fixed set, logging every question."""

    def __init__(self, held: frozenset) -> None:
        self.held = held
        self.asked: list = []

    def holds(self, node: int, path: str, now: float) -> bool:
        self.asked.append((node, path, now))
        return (node, path) in self.held


_load = st.floats(min_value=0.0, max_value=12.0,
                  allow_nan=False, allow_infinity=False)
#: report ages: fresh, suspected (past 4 s) and stale (past 8 s)
_age = st.sampled_from([0.0, 0.7, 2.5, 4.5, 6.5, 8.5, 30.0])


@st.composite
def _snapshot(draw, node: int):
    return LoadSnapshot(node=node, cpu_load=draw(_load),
                        disk_load=draw(_load), net_load=draw(_load),
                        cpu_speed=draw(st.sampled_from([1e7, 4e7, 8e7])),
                        disk_bandwidth=draw(st.sampled_from([3e6, 1e7])),
                        timestamp=-draw(_age))


@st.composite
def _case(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    owner = draw(st.integers(min_value=0, max_value=n - 1))
    reports = [draw(_snapshot(node)) for node in range(n)
               if draw(st.booleans())]
    order = draw(st.permutations(range(len(reports))))
    files = {}
    for path in PATHS[:-1]:
        files[path] = FileMeta(
            path=path, home=draw(st.integers(min_value=0, max_value=n + 1)),
            size=draw(st.sampled_from([0.0, 800.0, 2e4, 1.2e6])),
            wan=draw(st.booleans()))
    ops = st.one_of(st.sampled_from([0.0, 4e5, 2.4e6]),
                    st.floats(min_value=0.0, max_value=1e7,
                              allow_nan=False, allow_infinity=False))
    params = CostParameters(
        delta=draw(st.sampled_from([0.0, 0.3, 1.0])),
        fork_ops=draw(ops), preprocess_ops=draw(ops),
        connect_time=draw(st.sampled_from([20e-3, 0.1 / 3])),
        internet_bandwidth=draw(st.sampled_from([1e6, 3.3e5])),
        assumed_client_latency=draw(st.sampled_from([None, 30e-3])),
        graceful_degradation=draw(st.booleans()),
        use_data_term=draw(st.booleans()),
        use_cpu_term=draw(st.booleans()),
        use_net_term=draw(st.booleans()),
        use_redirection_term=draw(st.booleans()),
        use_cache_term=draw(st.booleans()))
    model = dict(net_bandwidth=draw(st.sampled_from([1e6, 4e7])),
                 mem_bandwidth=8e7,
                 wan_bandwidth=draw(st.sampled_from([None, 2e6])),
                 wan_latency=draw(st.sampled_from([0.0, 0.04])))
    rule = st.builds(OracleRule, pattern=st.sampled_from(PATTERNS),
                     ops_per_byte=st.sampled_from([0.1, 6.0, 7.0]),
                     base_ops=st.sampled_from([0.0, 5e4]))
    rules = draw(st.one_of(st.none(),
                           st.lists(rule, min_size=1, max_size=5)))
    held = frozenset(draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=n - 1), st.sampled_from(PATHS)),
        max_size=6)))
    steps = draw(st.lists(st.tuples(
        st.sampled_from(PATHS),
        st.sampled_from([2e-3, 40e-3]),
        st.sampled_from([0.0, 0.0, 1.0, 3.0]),
        st.one_of(st.none(), st.tuples(st.sampled_from(PATHS), _load))),
        min_size=1, max_size=8))
    return dict(owner=owner, reports=[reports[i] for i in order],
                probe=draw(st.one_of(st.none(), _snapshot(owner))),
                files=files, params=params, model=model, rules=rules,
                adaptive=draw(st.booleans()),
                directory=draw(st.booleans()), held=held, steps=steps)


def _build(case, sim, new: bool):
    owner = case["owner"]
    view = ClusterView(owner, staleness_timeout=8.0, suspicion_timeout=4.0)
    for snap in case["reports"]:
        view.update(snap)
    cgi = CGIRegistry()
    cgi.add("/cgi-bin/q", cpu_ops=3e5, output_bytes=900.0)
    if case["adaptive"]:
        cls = AdaptiveOracle if new else ReferenceAdaptiveOracle
        oracle = cls(rules=case["rules"], cgi_registry=cgi,
                     min_observations=1)
    else:
        cls = Oracle if new else ReferenceOracle
        oracle = cls(rules=case["rules"], cgi_registry=cgi)
    probe = case["probe"]
    directory = _Directory(case["held"]) if case["directory"] else None
    broker = (Broker if new else ReferenceBroker)(
        sim, owner, view, oracle,
        (CostModel if new else ReferenceCostModel)(case["params"],
                                                   **case["model"]),
        _FS(case["files"]), tracer=Tracer(),
        local_probe=(None if probe is None else lambda: probe),
        directory=directory)
    return broker


def _terms(decision) -> list:
    return [repr((e.node, e.t_redirection, e.t_data, e.t_cpu, e.t_net,
                  e.total)) for e in decision.estimates]


def _state(broker) -> tuple:
    return (broker.decisions, broker.redirections, broker.fallbacks,
            repr(sorted(broker.view._snapshots.items())),
            [rec.format() for rec in broker.tracer.records],
            None if broker.directory is None else broker.directory.asked)


@given(_case())
@settings(max_examples=400, deadline=None)
def test_broker_matches_reference(case):
    sim = Simulator()
    new = _build(case, sim, new=True)
    ref = _build(case, sim, new=False)
    for path, latency, dt, observe in case["steps"]:
        if dt:
            sim.run(until=sim.now + dt)
        got = new.choose_server(path, latency)
        want = ref.choose_server(path, latency)
        assert (got.chosen, got.local, got.task) == \
            (want.chosen, want.local, want.task)
        assert _terms(got) == _terms(want)
        assert _state(new) == _state(ref)
        if observe is not None and case["adaptive"]:
            seen, rate = observe
            new.oracle.observe(seen, 1e4, rate * 1e4)
            ref.oracle.observe(seen, 1e4, rate * 1e4)


def test_estimate_is_the_one_candidate_case_of_estimate_all():
    model = CostModel(CostParameters(assumed_client_latency=None))
    oracle = Oracle()
    task = oracle.characterize("/a.html", 5e4)
    snaps = [LoadSnapshot(node=i, cpu_load=0.5 * i, disk_load=1.0,
                          net_load=0.25 * i, cpu_speed=4e7,
                          disk_bandwidth=1e7, timestamp=0.0)
             for i in range(4)]
    batch = model.estimate_all(task, snaps, snaps[2], 2, local=1,
                               client_latency=0.05,
                               cached=[False, True, False, False])
    single = tuple(model.estimate(task, s, snaps[2], 2, local=1,
                                  client_latency=0.05, cached=(s.node == 1))
                   for s in snaps)
    assert batch == single
    assert [e.node for e in batch] == [0, 1, 2, 3]
    assert batch[1].t_redirection == 0.0 and batch[0].t_redirection > 0


def test_oracle_rule_memo_follows_a_new_table():
    oracle = Oracle(rules=[OracleRule(pattern="*.html", ops_per_byte=2.0),
                           OracleRule(pattern="*", ops_per_byte=1.0)])
    assert oracle.characterize("/x.html", 10.0).cpu_ops == 20.0
    oracle.rules = (OracleRule(pattern="*", ops_per_byte=3.0),)
    assert oracle.characterize("/x.html", 10.0).cpu_ops == 30.0


def test_cluster_view_queries_in_node_order_whatever_the_arrival_order():
    view = ClusterView(owner=2)
    for node in (4, 0, 3, 2, 1):
        view.update(LoadSnapshot(node=node, cpu_load=0.0, disk_load=0.0,
                                 net_load=0.0, cpu_speed=4e7,
                                 disk_bandwidth=1e7, timestamp=0.0))
    assert [s.node for s in view.available(1.0)] == [0, 1, 2, 3, 4]
    assert view.known_nodes() == [0, 1, 2, 3, 4]
    assert list(view.availability(1.0)) == [0, 1, 2, 3, 4]
    view.inflate_cpu(3, 0.3)
    # Re-reporting a known node keeps its slot; a stale report hides it.
    view.update(LoadSnapshot(node=1, cpu_load=0.0, disk_load=0.0,
                             net_load=0.0, cpu_speed=4e7,
                             disk_bandwidth=1e7, timestamp=-10.0))
    assert view.known_nodes() == [0, 1, 2, 3, 4]
    assert [s.node for s in view.available(1.0)] == [0, 2, 3, 4]
    assert [s.node for s in view.available(20.0)] == [2]
