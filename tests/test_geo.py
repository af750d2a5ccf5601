"""The geo tier (docs/GEO.md): spec validation, the pure placement
planner (Hypothesis-pinned guarantees), the edge file system's WAN read
path, geo-affinity routing, and end-to-end determinism of ``run_geo``.

The three planner properties mirror the docstring contract of
:func:`repro.geo.plan_placement`:

* placed bytes per site never exceed that site's budget;
* no ``(path, site)`` pair appears twice and no copy is planned to a
  site that already holds the file;
* the plan is a pure function of the heat snapshot — same inputs, same
  plan, inputs unmodified.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.geo import (
    GeoDNS,
    GeoScenario,
    GeoSpec,
    GeoSystem,
    SiteSpec,
    WanLink,
    geo3,
    plan_placement,
    run_geo,
)
from repro.sim import engine
from repro.web.client import Client
from repro.workload.corpus import uniform_corpus

KB, MB = 1e3, 1e6


# ----------------------------------------------------------- planner props
@st.composite
def placement_inputs(draw):
    ids = draw(st.lists(st.integers(0, 999), unique=True,
                        min_size=1, max_size=15))
    paths = [f"/geo/f{i:03d}.html" for i in ids]
    heat = {p: draw(st.floats(0.0, 1e9, allow_nan=False,
                              allow_infinity=False)) for p in paths}
    sizes = {p: draw(st.floats(1 * KB, 1 * MB)) for p in paths}
    edges = [f"site{i}" for i in range(draw(st.integers(1, 4)))]
    budgets = {s: draw(st.floats(0.0, 3 * MB)) for s in edges}
    existing = {}
    for p in paths:
        if draw(st.booleans()):
            holders = draw(st.lists(st.sampled_from(edges), unique=True,
                                    max_size=len(edges)))
            if holders:
                existing[p] = set(holders)
    skew = draw(st.floats(1.0, 3.0))
    max_placements = draw(st.one_of(st.none(), st.integers(1, 10)))
    return heat, sizes, edges, budgets, existing, skew, max_placements


@given(inputs=placement_inputs())
@settings(max_examples=150, deadline=None)
def test_placement_respects_budgets(inputs):
    heat, sizes, edges, budgets, existing, skew, max_placements = inputs
    plan = plan_placement(heat, sizes, edges, budgets, existing=existing,
                          skew=skew, max_placements=max_placements)
    placed = {site: 0.0 for site in edges}
    for path, site in plan:
        placed[site] += sizes[path]
    for site in edges:
        assert placed[site] <= budgets[site] + 1e-6
    if max_placements is not None:
        assert len(plan) <= max_placements


@given(inputs=placement_inputs())
@settings(max_examples=150, deadline=None)
def test_placement_never_duplicates_a_copy(inputs):
    heat, sizes, edges, budgets, existing, skew, max_placements = inputs
    plan = plan_placement(heat, sizes, edges, budgets, existing=existing,
                          skew=skew, max_placements=max_placements)
    assert len(set(plan)) == len(plan)
    for path, site in plan:
        assert site not in existing.get(path, set())
        assert path in heat and site in edges


@given(inputs=placement_inputs())
@settings(max_examples=100, deadline=None)
def test_placement_is_pure(inputs):
    heat, sizes, edges, budgets, existing, skew, max_placements = inputs
    frozen = copy.deepcopy(inputs)
    first = plan_placement(heat, sizes, edges, budgets, existing=existing,
                           skew=skew, max_placements=max_placements)
    second = plan_placement(heat, sizes, edges, budgets, existing=existing,
                            skew=skew, max_placements=max_placements)
    assert first == second
    assert inputs == frozen  # the planner never mutates its inputs


def test_placement_rejects_bad_skew():
    with pytest.raises(ValueError):
        plan_placement({"/a": 1.0}, {"/a": 1.0}, ["e"], {"e": 1.0}, skew=0.5)


def test_placement_fans_hot_file_to_every_edge():
    # One file far above the mean earns a copy on every edge.
    heat = {"/hot": 1000.0}
    heat.update({f"/cold{i}": 10.0 for i in range(9)})
    sizes = {p: 10 * KB for p in heat}
    edges = ["e0", "e1", "e2"]
    plan = plan_placement(heat, sizes, edges, {s: MB for s in edges})
    assert {(p, s) for p, s in plan if p == "/hot"} == \
        {("/hot", s) for s in edges}


# ------------------------------------------------------------------- spec
def test_geospec_requires_complete_link_matrix():
    a = SiteSpec("a", geo3().site("origin").cluster)
    b = SiteSpec("b", geo3().site("west").cluster)
    c = SiteSpec("c", geo3().site("east").cluster)
    link = WanLink(latency=0.01, bandwidth=MB)
    with pytest.raises(ValueError, match="missing WAN links"):
        GeoSpec(name="bad", sites=(a, b, c),
                links=(("a", "b", link), ("a", "c", link)), origin="a")


def test_geospec_rejects_duplicates_and_bad_origin():
    a = SiteSpec("a", geo3().site("origin").cluster)
    link = WanLink(latency=0.01, bandwidth=MB)
    with pytest.raises(ValueError, match="duplicate site"):
        GeoSpec(name="bad", sites=(a, a), links=(("a", "a", link),),
                origin="a")
    with pytest.raises(ValueError, match="not a site"):
        GeoSpec(name="bad", sites=(a,), links=(), origin="zzz")
    with pytest.raises(ValueError):
        WanLink(latency=-1.0, bandwidth=MB)
    with pytest.raises(ValueError):
        WanLink(latency=0.0, bandwidth=0.0)


def test_geo3_shape_and_lookups():
    spec = geo3()
    assert spec.site_names == ("origin", "west", "east")
    assert spec.edge_names == ("west", "east")
    assert spec.link("west", "origin") is spec.link("origin", "west")
    assert spec.link("west", "east").latency == pytest.approx(
        spec.link("origin", "west").latency
        + spec.link("origin", "east").latency)
    # west is nearer to the origin than east, so it spills there first.
    assert spec.nearest_order("west") == ("origin", "east")
    assert spec.nearest_order("origin") == ("west", "east")
    with pytest.raises(ValueError):
        spec.link("west", "west")


# ---------------------------------------------------------------- routing
class _FakeNode:
    def __init__(self, load=0.0, alive=True):
        self._load = load
        self.alive = alive

    def cpu_load(self):
        return self._load


class _FakeCluster:
    def __init__(self, *loads, alive=True):
        self.nodes = [_FakeNode(load, alive=alive) for load in loads]


def _dns(graceful, loads=None, **kwargs):
    spec = geo3()
    loads = loads or {}
    clusters = {name: _FakeCluster(*loads.get(name, (0.0, 0.0)))
                for name in spec.site_names}
    return GeoDNS(spec, clusters, graceful=graceful, **kwargs)


def test_dns_routes_home_when_healthy():
    dns = _dns(graceful=True)
    assert dns.route("east") == "east"
    assert dns.spills == 0 and dns.unroutable == 0


def test_dns_partition_paper_faithful_loses_the_population():
    dns = _dns(graceful=False)
    dns.partition_site("east")
    assert dns.route("east") is None
    assert dns.route("west") == "west"  # blast radius is one site
    assert dns.unroutable == 1
    dns.heal_site("east")
    assert dns.route("east") == "east"


def test_dns_partition_graceful_spills_to_nearest():
    dns = _dns(graceful=True)
    dns.partition_site("east")
    assert dns.route("east") == "origin"  # east's nearest healthy site
    assert dns.partition_spills == 1
    dns.partition_site("origin")
    assert dns.route("east") == "west"  # next-nearest still up
    dns.partition_site("west")
    assert dns.route("east") is None  # everything dark
    assert dns.unroutable == 1


def test_dns_overload_spill_needs_graceful_and_headroom():
    loads = {"east": (9.0, 9.0), "origin": (1.0, 1.0), "west": (1.0, 1.0)}
    assert _dns(graceful=False, loads=loads).route("east") == "east"
    dns = _dns(graceful=True, loads=loads, spill_threshold=6.0)
    assert dns.route("east") == "origin"
    assert dns.spills == 1
    # No site under the threshold: stay home rather than bounce around.
    hot = {name: (9.0, 9.0) for name in ("origin", "west", "east")}
    dns = _dns(graceful=True, loads=hot)
    assert dns.route("east") == "east"


def test_dns_validates_sites_and_threshold():
    dns = _dns(graceful=True)
    with pytest.raises(KeyError):
        dns.route("mars")
    with pytest.raises(KeyError):
        dns.partition_site("mars")
    with pytest.raises(ValueError):
        _dns(graceful=True, spill_threshold=0.0)


# ---------------------------------------------------- edge fs / WAN reads
def _edge_read_twice(budget):
    system = GeoSystem(edge_budget_bytes=budget, start_daemons=False)
    corpus = uniform_corpus(6, 50 * KB, 4, prefix="/geo")
    system.install_corpus(corpus)
    fs = system.edge_fs["west"]
    path = corpus.documents[0].path
    outcomes = []

    def reader():
        first = yield from fs.read(path, at_node=0)
        outcomes.append(first)
        second = yield from fs.read(path, at_node=0)
        outcomes.append(second)

    system.run(until=system.sim.spawn(reader(), name="t.reader"))
    return system, fs, outcomes


def test_edge_miss_crosses_wan_then_hits_cache():
    system, fs, outcomes = _edge_read_twice(budget=16 * MB)
    assert [o.source for o in outcomes] == ["wan", "cache"]
    assert fs.wan_reads == 1 and fs.edge_hits == 1
    assert fs.wan_bytes == pytest.approx(50 * KB)
    assert fs.edge_installs == 1
    assert system.edge_hit_rate() == pytest.approx(0.5)
    # The transfer took real simulated time: latency + bytes/bandwidth.
    assert system.sim.now > geo3().link("origin", "west").latency


def test_zero_budget_edge_never_caches():
    _system, fs, outcomes = _edge_read_twice(budget=0.0)
    assert [o.source for o in outcomes] == ["wan", "wan"]
    assert fs.wan_reads == 2 and fs.edge_hits == 0
    assert fs.budget_rejections == 2
    assert fs.resident_replica_bytes() == 0.0


def test_placement_daemon_ships_hot_files_within_budget():
    system = GeoSystem(edge_budget_bytes=16 * MB, start_daemons=False)
    corpus = uniform_corpus(8, 50 * KB, 4, prefix="/geo")
    system.install_corpus(corpus)
    hot = corpus.documents[0].path
    for _ in range(40):
        system.heat.record(hot, 50 * KB)
    for doc in corpus.documents[1:]:
        system.heat.record(doc.path, 50 * KB)
    planned = system.placementd.run_cycle()
    assert {p for p, _site in planned} == {hot}
    assert {site for _p, site in planned} == {"west", "east"}
    system.run(until=system.sim.timeout(5.0))
    assert system.total_placements() == 2
    for fs in system.edge_fs.values():
        assert fs.resident_replica_bytes() == pytest.approx(50 * KB)
    # Replanning is a no-op: both edges already hold the only hot file.
    assert system.placementd.run_cycle() == []


# --------------------------------------------------------------- scenario
def _tiny(**overrides):
    base = dict(name="t-geo", n_files=20, hot_files=5, file_bytes=60 * KB,
                rps=15.0, duration=4.0, seed=3)
    base.update(overrides)
    return GeoScenario(**base)


def test_run_geo_is_deterministic():
    first, second = run_geo(_tiny()), run_geo(_tiny())
    assert first.summary_line() == second.summary_line()
    assert first.wan_bytes == second.wan_bytes
    assert first.finished_at == second.finished_at
    for site in ("origin", "west", "east"):
        assert (first.population(site).response_times
                == second.population(site).response_times)


def test_run_geo_populations_tally_offered():
    result = run_geo(_tiny())
    total = sum(p.offered for p in result.populations.values())
    assert total == int(15.0 * 4.0)
    for pop in result.populations.values():
        assert pop.completed + pop.dropped + pop.lost <= pop.offered
        assert pop.lost == 0


def test_run_geo_partition_graceful_vs_paper_faithful():
    kwargs = dict(partition_site="east", partition_window=(1.0, 3.0))
    plain = run_geo(_tiny(graceful=False, **kwargs))
    east = plain.population("east")
    assert east.lost > 0 and plain.unroutable == east.lost
    assert plain.population("west").lost == 0

    graceful = run_geo(_tiny(graceful=True, **kwargs))
    east = graceful.population("east")
    assert east.lost == 0 and east.spilled > 0
    assert graceful.partition_spills == east.spilled


def test_run_geo_with_no_arrivals_ends_at_once():
    result = run_geo(_tiny(duration=0.0))
    assert result.finished_at == 0.0
    assert all(p.offered == 0 for p in result.populations.values())


def test_a_failed_fetch_fails_the_run(monkeypatch):
    """The first failed fetch fails the run with its exception, as the
    condition over every arrival did; the later settles change nothing."""
    fetch = Client.fetch
    calls = []

    def failing(client, path, *args, **kwargs):
        calls.append(path)
        if len(calls) != 5:
            return fetch(client, path, *args, **kwargs)

        def broken():
            raise RuntimeError("fetch broke")
            yield  # pragma: no cover - makes this a generator

        return client.cluster.sim.spawn(broken())

    monkeypatch.setattr(Client, "fetch", failing)
    with pytest.raises(RuntimeError, match="fetch broke"):
        run_geo(_tiny())
    assert len(calls) >= 5


def test_run_geo_heap_does_not_grow_with_the_arrival_count(monkeypatch):
    """Future arrivals wait on one timeline, not one heap entry each: the
    heap's high-water mark stays flat as the run gets longer."""
    push = engine.heappush
    high = [0]

    def counting(heap, entry):
        push(heap, entry)
        high[0] = max(high[0], len(heap))

    monkeypatch.setattr(engine, "heappush", counting)
    highs, arrivals = [], []
    for duration in (4.0, 16.0):
        high[0] = 0
        result = run_geo(_tiny(duration=duration))
        highs.append(high[0])
        arrivals.append(sum(p.offered for p in result.populations.values()))
    assert arrivals == [60, 240]
    assert max(highs) < arrivals[0]
    assert highs[1] - highs[0] <= (arrivals[1] - arrivals[0]) // 20


@pytest.mark.parametrize("field, value", [
    ("rps", 0.0), ("rps", -5.0), ("rps", float("nan")), ("rps", float("inf")),
    ("duration", -3.0), ("duration", float("nan")),
    ("duration", float("inf"))])
def test_scenario_rejects_bad_rate_and_duration(field, value):
    with pytest.raises(ValueError, match=field):
        GeoScenario(**{field: value})
