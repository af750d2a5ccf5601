"""HTTP clients: the left-hand side of Figure 1.

A client resolves the server name through the (round-robin) DNS, opens a
TCP connection, sends the request, and waits for the full response —
following at most one SWEB 302 redirection, "the conceptual model … of a
very short reply going back to the client browser, who then automatically
issues another request to the new server address" (§3.2).

Client profiles carry the WAN path parameters: the paper tested from
within UCSB (low latency, high bandwidth) and from Rutgers on the east
coast ("poor bandwidth and long latency").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..cluster.network import WANPath
from ..obs import Span
from ..sim import Event, Timeout, join
from .http import HTTPRequest, HTTPResponse
from .metrics import Metrics, RequestRecord
from .server import Connection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..core.sweb import SWEBCluster

__all__ = ["ClientProfile", "Client", "UCSB_CLIENT", "RUTGERS_CLIENT"]


@dataclass(frozen=True)
class ClientProfile:
    """Where a client sits on the Internet."""

    name: str
    wan: WANPath
    domain: str = "default"   # its local DNS resolver's domain (TTL caching)


#: A browser on the UCSB campus network (the paper's primary client pool).
UCSB_CLIENT = ClientProfile(name="ucsb",
                            wan=WANPath(latency=2e-3, bandwidth=5e6,
                                        name="ucsb-lan"),
                            domain="ucsb.edu")

#: A browser at Rutgers: cross-country latency, thin mid-90s pipe.
RUTGERS_CLIENT = ClientProfile(name="rutgers",
                               wan=WANPath(latency=40e-3, bandwidth=0.3e6,
                                           name="east-coast"),
                               domain="rutgers.edu")


class Client:
    """Issues requests against a :class:`SWEBCluster`."""

    def __init__(self, cluster: "SWEBCluster",
                 profile: ClientProfile = UCSB_CLIENT,
                 metrics: Optional[Metrics] = None,
                 timeout: float = 120.0,
                 resolver=None) -> None:
        # Chained comparison: NaN fails it, so no deadline can be NaN.
        if not 0 < timeout < float("inf"):
            raise ValueError(f"timeout must be finite and > 0, got {timeout}")
        self.cluster = cluster
        self.profile = profile
        self.metrics = metrics if metrics is not None else cluster.metrics
        self.timeout = timeout
        #: optional two-level resolver (repro.web.resolver.LocalResolver);
        #: when None, the cluster's fused RoundRobinDNS answers directly.
        self.resolver = resolver
        #: (method, path, node) -> the request's wire text, formatted
        #: once per distinct request this client sends
        self._texts: dict[tuple[str, str, int], str] = {}

    # -- public API -------------------------------------------------------
    def fetch(self, path: str, method: str = "GET",
              body_bytes: float = 0.0):
        """Spawn one request; the returned Process resolves to its record.

        ``body_bytes`` is the upload size for POST (ignored otherwise).
        """
        return self.cluster.sim.spawn(self._fetch(path, method, body_bytes),
                                      name=f"client.{self.profile.name}")

    # -- tracing helpers ------------------------------------------------------
    def _span(self, parent: Optional[Span], name: str, stage: str,
              **tags) -> Optional[Span]:
        """Open a client-side (node-less) span under ``parent``."""
        tracer = self.cluster.tracer
        if tracer is None:
            return None
        return tracer.start(parent, name, self.cluster.sim.now, stage, **tags)

    def _end(self, span: Optional[Span], **tags) -> None:
        """Close ``span`` at the current sim time (None-safe)."""
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.finish(span, self.cluster.sim.now, **tags)

    def _drop(self, rec: RequestRecord, root: Optional[Span], reason: str,
              node: Optional[int] = None) -> RequestRecord:
        """Give the request up for ``reason``: close its root span, record
        the drop and, when ``node`` is given, trace it as an ``http``
        event at that node.  Returns ``rec``."""
        now = self.cluster.sim.now
        self._end(root, outcome="dropped", reason=reason)
        self.metrics.drop(rec, now, reason=reason)
        tracer = self.cluster.tracer
        if node is not None and tracer is not None and tracer.active:
            tracer.emit(now, "http", f"client-{rec.req_id}", reason,
                        node=node)
        return rec

    # -- the request state machine ------------------------------------------
    def _resolve(self, span: Optional[Span] = None):
        """One DNS exchange; returns the resolved node id.

        ``span`` is the enclosing trace span: the pick and cache-hit
        flag are tagged onto it.  Raises ``LookupError`` when the zone
        is empty (every server deregistered)."""
        sim = self.cluster.sim
        tracer = self.cluster.tracer
        if self.resolver is not None:
            before = self.resolver.cache_hits
            node_id = yield self.resolver.resolve(ctx=span)
            if tracer is not None:
                tracer.annotate(span, node=node_id,
                                cache_hit=self.resolver.cache_hits > before)
        else:
            yield sim.timeout(self.cluster.dns.lookup_latency)
            node_id, from_cache = self.cluster.dns.resolve_ex(
                self.profile.domain)
            if tracer is not None:
                tracer.annotate(span, node=node_id, cache_hit=from_cache)
        return node_id

    def _fetch(self, path: str, method: str = "GET",
               body_bytes: float = 0.0):
        sim = self.cluster.sim
        params = self.cluster.params
        size = (self.cluster.fs.locate(path).size
                if self.cluster.fs.exists(path) else 0.0)
        rec = self.metrics.new_record(path, start=sim.now,
                                      client=self.profile.name, size=size)
        tracer = self.cluster.tracer
        root = (tracer.begin(rec.req_id, path, self.profile.name, sim.now)
                if tracer is not None else None)
        deadline = Timeout(sim)
        entry = sim.schedule(deadline, sim.now + self.timeout)
        # Graceful degradation: a refused or reset connection is retried
        # (after exponential backoff, at a freshly-resolved node) instead
        # of dropped.  Bounded, and off entirely in paper-faithful mode.
        retries_left = (params.client_retries
                        if params.graceful_degradation else 0)

        try:
            # --- DNS: Figure 1's first exchange ------------------------------
            t0 = sim.now
            dns_span = self._span(root, "dns", "network")
            try:
                node_id = yield from self._resolve(dns_span)
            except LookupError:
                self._end(dns_span, error="empty_zone")
                return self._drop(rec, root, "dns")
            self._end(dns_span)
            rec.dns_node = node_id
            rec.add_phase("network", sim.now - t0)
            if tracer is not None and tracer.active:
                tracer.emit(sim.now, "http", f"client-{rec.req_id}",
                            "dns_lookup", node=node_id)

            request_text = self._request_text(method, path, node_id)

            hop = 0
            while True:
                server = self.cluster.servers[node_id]
                phase = "network" if hop == 0 else "redirection"

                # --- TCP connect: one WAN round trip + server setup ----------
                t1 = sim.now
                # The connect span ends at accept time: from there on the
                # server's own spans (also children of the root) take over,
                # overlapping the client's final request-shipping WAN leg.
                cspan = self._span(
                    root, "connect" if hop == 0 else "redirect_connect",
                    phase, node=None, target=node_id)
                yield sim.timeout(2 * self.profile.wan.latency
                                  + self.cluster.params.connect_time)
                conn = self._connection(request_text, rec, hop, body_bytes,
                                        span=root)
                if not server.try_accept(conn):
                    self._end(cspan, refused=True)
                    rec.add_phase(phase, sim.now - t1)
                    if retries_left > 0:
                        retries_left -= 1
                        try:
                            node_id = yield from self._retry(rec, node_id,
                                                             "refused", root)
                        except LookupError:
                            return self._drop(rec, root, "dns")
                        continue
                    return self._drop(rec, root, "refused", node_id)
                self._end(cspan)
                # --- ship the request line + headers (small, one way) --------
                yield sim.timeout(self.profile.wan.latency)
                rec.add_phase(phase, sim.now - t1)

                # --- wait for the full response, bounded by the deadline -----
                yield join(sim, (conn.reply, deadline), need=1)
                if not conn.reply.triggered:
                    return self._drop(rec, root, "timeout", node_id)
                response: HTTPResponse = conn.reply.value

                if response.status == 503:
                    # The connection was reset mid-flight (the serving node
                    # crashed — including a redirect target that died between
                    # the 302 and our second connection).
                    if retries_left > 0:
                        retries_left -= 1
                        try:
                            node_id = yield from self._retry(rec, node_id,
                                                             "reset", root)
                        except LookupError:
                            return self._drop(rec, root, "dns")
                        continue
                    return self._drop(rec, root, "reset", node_id)

                if response.is_redirect and hop == 0:
                    # Follow the 302 exactly once (the SWEB rule).
                    rec.redirected = True
                    node_id = int(response.headers["X-SWEB-Node"])
                    if tracer is not None and tracer.active:
                        tracer.emit(sim.now, "http", f"client-{rec.req_id}",
                                    "follow_redirect", to=node_id)
                    hop = 1
                    continue
                self._end(root, outcome="ok", status=response.status,
                          served_by=rec.served_by)
                self.metrics.finish(rec, sim.now, response.status)
                if tracer is not None and tracer.active:
                    tracer.emit(sim.now, "http", f"client-{rec.req_id}",
                                "complete", status=response.status,
                                node=node_id)
                return rec
        finally:
            # A settled request withdraws its deadline so the event heap
            # holds only live work; a deadline that fired was dispatched,
            # which cleared its callbacks.
            if deadline.callbacks is not None:
                sim.withdraw(entry)

    def _retry(self, rec: RequestRecord, failed_node: int, reason: str,
               root: Optional[Span] = None):
        """Back off exponentially, re-resolve DNS, and report the new node.

        The delay is ``retry_backoff * 2^k`` for the k-th retry of this
        request — bounded because the retry count itself is bounded by
        ``client_retries``.  Raises ``LookupError`` if the zone emptied.
        """
        sim = self.cluster.sim
        delay = self.cluster.params.retry_backoff * (2 ** rec.retries)
        rec.retries += 1
        self.metrics.counters.incr("retries")
        tracer = self.cluster.tracer
        if tracer is not None and tracer.active:
            tracer.emit(sim.now, "http", f"client-{rec.req_id}",
                        "retry", reason=reason, node=failed_node,
                        backoff=round(delay, 3))
        t0 = sim.now
        span = self._span(root, "retry", "network", reason=reason,
                          failed_node=failed_node, backoff=round(delay, 6))
        if delay > 0:
            yield sim.timeout(delay)
        try:
            node_id = yield from self._resolve(span)
        finally:
            self._end(span)
        rec.add_phase("network", sim.now - t0)
        return node_id

    def _request_text(self, method: str, path: str, node_id: int) -> str:
        """The wire text of ``method path`` addressed to node ``node_id``."""
        key = (method, path, node_id)
        text = self._texts.get(key)
        if text is None:
            text = self._texts[key] = HTTPRequest(
                method=method, path=path,
                host=f"sweb{node_id}.cs.ucsb.edu",
                headers={"User-Agent": "Mosaic/2.6 (X11; SunOS)"}).format()
        return text

    def _connection(self, request_text: str, rec: RequestRecord,
                    hop: int, body_bytes: float = 0.0,
                    span: Optional[Span] = None) -> Connection:
        return Connection(
            raw_request=request_text,
            wan=self.profile.wan,
            record=rec,
            reply=Event(self.cluster.sim),
            redirects_left=max(0, self.cluster.params.max_redirects - hop),
            body_bytes=body_bytes,
            span=span,
        )
