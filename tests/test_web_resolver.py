"""Tests for the two-level DNS resolver chain (repro.web.resolver)."""

import pytest

from repro.cluster import WANPath
from repro.obs import Tracer
from repro.sim import Simulator
from repro.web.resolver import AuthoritativeDNS, LocalResolver


def make_chain(ttl=30.0, latency=0.04, tracer=None):
    sim = Simulator()
    auth = AuthoritativeDNS(sim, [0, 1, 2], ttl=ttl)
    resolver = LocalResolver(sim, auth,
                             wan=WANPath(latency=latency, bandwidth=1e6),
                             domain="rutgers.edu", tracer=tracer)
    return sim, auth, resolver


def resolve(sim, resolver):
    out = {}

    def go():
        out["address"] = yield resolver.resolve()
        out["when"] = sim.now

    sim.spawn(go())
    sim.run()
    return out


def test_cold_resolution_pays_wan_round_trip():
    sim, _auth, resolver = make_chain(latency=0.04)
    out = resolve(sim, resolver)
    assert out["address"] == 0
    # local hop (1 ms) + WAN RTT (80 ms) + answer latency (0.5 ms)
    assert out["when"] == pytest.approx(0.0815, abs=1e-4)
    assert resolver.upstream_queries == 1


def test_cached_resolution_is_local_only():
    sim, _auth, resolver = make_chain(ttl=100.0)
    resolve(sim, resolver)
    out2 = resolve(sim, resolver)
    assert out2["address"] == 0           # pinned by the cache
    assert resolver.cache_hits == 1
    assert resolver.upstream_queries == 1
    assert resolver.queries == 2


def test_ttl_expiry_rotates_to_next_node():
    sim, _auth, resolver = make_chain(ttl=5.0)
    first = resolve(sim, resolver)

    def wait():
        yield sim.timeout(10.0)

    sim.spawn(wait())
    sim.run()
    second = resolve(sim, resolver)
    assert second["address"] != first["address"]


def test_separate_domains_get_rotation():
    sim = Simulator()
    auth = AuthoritativeDNS(sim, [0, 1, 2], ttl=100.0)
    r1 = LocalResolver(sim, auth, domain="a.edu")
    r2 = LocalResolver(sim, auth, domain="b.edu")
    out1, out2 = {}, {}

    def go(resolver, out):
        out["address"] = yield resolver.resolve()

    sim.spawn(go(r1, out1))
    sim.run()
    sim.spawn(go(r2, out2))
    sim.run()
    assert out1["address"] != out2["address"]


def test_empty_zone_fails_resolution():
    sim = Simulator()
    auth = AuthoritativeDNS(sim, [0], ttl=0.0)
    auth.deregister(0)
    resolver = LocalResolver(sim, auth)
    failures = []

    def go():
        try:
            yield resolver.resolve()
        except LookupError:
            failures.append(sim.now)

    sim.spawn(go())
    sim.run()
    assert failures


def test_zero_ttl_never_caches():
    sim, _auth, resolver = make_chain(ttl=0.0)
    resolve(sim, resolver)
    resolve(sim, resolver)
    assert resolver.upstream_queries == 2
    assert resolver.cache_hits == 0


def test_trace_records_dns_exchanges():
    trace = Tracer()
    sim, _auth, resolver = make_chain(tracer=trace)
    resolve(sim, resolver)
    resolve(sim, resolver)
    actions = [rec.action for rec in trace.filter(category="dns")]
    assert "query_authoritative" in actions
    assert "authoritative_answer" in actions
    assert "cache_hit" in actions


def test_register_and_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        AuthoritativeDNS(sim, [])
    with pytest.raises(ValueError):
        AuthoritativeDNS(sim, [0], ttl=-1.0)
    auth = AuthoritativeDNS(sim, [0])
    auth.register(1)
    auth.register(1)
    assert auth.addresses == [0, 1]
