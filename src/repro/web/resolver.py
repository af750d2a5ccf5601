"""The two-level DNS of Figure 1.

"First, the client determines the host name from the URL, and uses the
local Domain Name System (DNS) server to determine its IP address.  The
local DNS may not know the IP address of the destination, and may need
to contact the DNS system on the destination side to complete the
resolution."

Two components:

* :class:`AuthoritativeDNS` — the name server at the SWEB site, handing
  out node addresses in round-robin rotation with a TTL;
* :class:`LocalResolver` — the client side's resolver: answers from its
  cache instantly, otherwise pays a WAN round trip to the authoritative
  server.  The cache is what makes "all requests for a period of time
  from a DNS server's domain go to a particular IP address" (§1).
"""

from __future__ import annotations

from typing import Optional

from ..cluster.network import WANPath
from ..obs import Span, Tracer
from ..sim import Event, Simulator

__all__ = ["AuthoritativeDNS", "LocalResolver"]


class AuthoritativeDNS:
    """The SWEB site's name server: rotation over the node pool."""

    def __init__(self, sim: Simulator, addresses: list[int],
                 ttl: float = 30.0, answer_latency: float = 0.5e-3,
                 name: str = "ns.cs.ucsb.edu") -> None:
        if not addresses:
            raise ValueError("need at least one address")
        if ttl < 0:
            raise ValueError(f"negative TTL: {ttl}")
        self.sim = sim
        self.addresses = list(addresses)
        self.ttl = float(ttl)
        self.answer_latency = float(answer_latency)
        self.name = name
        self._cursor = 0
        self.queries = 0

    def register(self, address: int) -> None:
        if address not in self.addresses:
            self.addresses.append(address)

    def deregister(self, address: int) -> None:
        try:
            self.addresses.remove(address)
        except ValueError:
            pass

    def answer(self) -> tuple[int, float]:
        """One authoritative answer: (address, ttl)."""
        if not self.addresses:
            raise LookupError("zone is empty")
        self.queries += 1
        address = self.addresses[self._cursor % len(self.addresses)]
        self._cursor += 1
        return address, self.ttl


class LocalResolver:
    """A client domain's caching resolver."""

    def __init__(self, sim: Simulator, authoritative: AuthoritativeDNS,
                 wan: Optional[WANPath] = None,
                 local_latency: float = 1e-3,
                 domain: str = "client.example.edu",
                 tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        self.authoritative = authoritative
        self.wan = wan
        self.local_latency = float(local_latency)
        self.domain = domain
        #: spans and event log; when set, resolutions called with a
        #: ``ctx`` span record their cache/upstream legs as child spans
        self.tracer = tracer
        self._cache: Optional[tuple[int, float]] = None   # (address, expiry)
        self.queries = 0
        self.cache_hits = 0
        self.upstream_queries = 0

    def resolve(self, hostname: str = "sweb.cs.ucsb.edu",
                ctx: Optional[Span] = None) -> Event:
        """Asynchronous resolution; the event's value is the node address.

        Cache hits cost only the LAN hop to the resolver; misses add a
        WAN round trip to the authoritative server.  When a tracer is
        wired in, ``ctx`` is the caller's span and each resolution leg
        (local cache probe, authoritative query) nests under it.
        """
        done = Event(self.sim)

        def pump():
            self.queries += 1
            sp = (self.tracer.start(ctx, "resolver_cache", self.sim.now,
                                    "network", domain=self.domain)
                  if self.tracer is not None else None)
            yield self.sim.timeout(self.local_latency)
            if self._cache is not None and self._cache[1] > self.sim.now:
                self.cache_hits += 1
                if self.tracer is not None:
                    self.tracer.finish(sp, self.sim.now, hit=True,
                                       address=self._cache[0])
                if self.tracer is not None and self.tracer.active:
                    self.tracer.emit(self.sim.now, "dns", self.domain,
                                     "cache_hit", address=self._cache[0])
                done.succeed(self._cache[0])
                return
            if self.tracer is not None:
                self.tracer.finish(sp, self.sim.now, hit=False)
            # Recursive query to the destination side (Figure 1's second
            # DNS exchange): one WAN round trip plus the answer latency.
            self.upstream_queries += 1
            rtt = 2 * self.wan.latency if self.wan is not None else 0.0
            sp = (self.tracer.start(ctx, "authoritative_query", self.sim.now,
                                    "network", server=self.authoritative.name)
                  if self.tracer is not None else None)
            if self.tracer is not None and self.tracer.active:
                self.tracer.emit(self.sim.now, "dns", self.domain,
                                 "query_authoritative",
                                 server=self.authoritative.name)
            yield self.sim.timeout(rtt + self.authoritative.answer_latency)
            try:
                address, ttl = self.authoritative.answer()
            except LookupError as exc:
                if self.tracer is not None:
                    self.tracer.finish(sp, self.sim.now, error="empty_zone")
                done.fail(exc)
                return
            if ttl > 0:
                self._cache = (address, self.sim.now + ttl)
            if self.tracer is not None:
                self.tracer.finish(sp, self.sim.now, address=address, ttl=ttl)
            if self.tracer is not None and self.tracer.active:
                self.tracer.emit(self.sim.now, "dns", self.domain,
                                 "authoritative_answer", address=address,
                                 ttl=ttl)
            done.succeed(address)

        self.sim.spawn(pump(), name=f"resolver.{self.domain}")
        return done
