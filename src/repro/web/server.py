"""The SWEB httpd: an NCSA-style daemon with the broker bolted on (§3.1).

Each node runs one :class:`HTTPServer`.  A request moves through the four
steps of §3.2 — preprocess, analyze, redirection, fulfillment — with each
step's cost charged to the node's simulated CPU under a named category,
so the §4.3 overhead accounting (parsing vs. scheduling vs. loadd) is an
output of the run rather than an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..cache import FileHeat
from ..cluster.network import Internet, WANPath
from ..cluster.node import Node
from ..cluster.filesystem import DistributedFileSystem
from ..obs import Span, Tracer
from ..sim import Event, Simulator, join

if TYPE_CHECKING:  # pragma: no cover - avoid a web <-> core import cycle
    from ..core.broker import Broker
    from ..core.costmodel import CostParameters
    from ..core.policies import SchedulingPolicy
from .cgi import CGIRegistry
from .http import (
    HTTPError,
    HTTPRequest,
    HTTPResponse,
    redirect_response,
)
from .metrics import RequestRecord

__all__ = ["Connection", "HTTPServer"]


@dataclass(eq=False)
class Connection:
    """One client↔server TCP connection carrying one HTTP request.

    Compared by identity: a connection is one live object, and the
    field-by-field ``__eq__`` a dataclass would generate is never wanted.
    """

    raw_request: str
    wan: WANPath
    record: RequestRecord
    reply: Event
    redirects_left: int = 1
    #: request body size (POST uploads; 0 for GET/HEAD)
    body_bytes: float = 0.0
    #: when set, this is an internal *forwarded* connection: the response
    #: is relayed over the cluster fabric back to the origin node instead
    #: of straight onto the Internet (the "request forwarding" mechanism
    #: §3.1 considered and rejected for the real implementation).
    relay_to: Optional["HTTPServer"] = None
    #: parent span server-side spans hang off (the request's root for a
    #: direct connection, the forward span for a relayed one); ``None``
    #: when tracing is off or the request was not sampled
    span: Optional[Span] = None

    @property
    def client_latency(self) -> float:
        return self.wan.latency


class HTTPServer:
    """One node's httpd + broker, accepting connections from clients."""

    def __init__(self, sim: Simulator, node: Node, fs: DistributedFileSystem,
                 internet: Internet, policy: "SchedulingPolicy",
                 broker: "Broker",
                 cgi_registry: Optional[CGIRegistry] = None,
                 params: Optional["CostParameters"] = None,
                 backlog: int = 64, hostname: Optional[str] = None,
                 heat: Optional[FileHeat] = None,
                 tracer: Optional[Tracer] = None) -> None:
        if backlog < 1:
            raise ValueError(f"backlog must be >= 1, got {backlog}")
        if params is None:
            # Intentional upward reach: the httpd's tuning knobs live in
            # core's CostParameters; this lazy default keeps standalone
            # HTTPServer construction working without a hard web->core
            # module-load dependency (SWEBCluster always passes params).
            # sweb-lint: disable=layer-import
            from ..core.costmodel import CostParameters
            params = CostParameters()
        self.sim = sim
        self.node = node
        self.fs = fs
        self.internet = internet
        self.policy = policy
        self.broker = broker
        self.cgi = cgi_registry if cgi_registry is not None else CGIRegistry()
        self.params = params
        self.backlog = backlog
        self.hostname = hostname or f"sweb{node.id}.cs.ucsb.edu"
        #: spans and event log (repro.obs); purely observational —
        #: the tracer reads the sim clock but never schedules
        self.tracer = tracer
        #: cluster-shared per-file request counters feeding the
        #: replication daemon's skew detector (docs/CACHING.md)
        self.heat = heat
        #: peer httpds by node id (wired by SWEBCluster; used by the
        #: request-forwarding mechanism)
        self.peers: dict[int, "HTTPServer"] = {}
        self.connections_active = 0
        self.connections_refused = 0
        self.connections_reset = 0
        self.requests_handled = 0
        self.redirects_issued = 0
        self.forwards_issued = 0
        #: connections currently in the §3.2 pipeline, in admission order
        #: (so a crash can reset them; see reset_connections)
        self._live: dict[Connection, None] = {}
        #: raw request text -> its parse (well-formed texts only, so a
        #: malformed one is rejected on every arrival)
        self._parsed: dict[str, HTTPRequest] = {}
        #: (version, status, header items, body size) -> header byte count
        self._header_bytes: dict[tuple, int] = {}

    # -- connection admission -----------------------------------------------
    def try_accept(self, conn: Connection) -> bool:
        """Admit a connection, or refuse it (SYN drop) when the listen
        queue is full or the node has left the pool."""
        if not self.node.alive or self.connections_active >= self.backlog:
            self.connections_refused += 1
            return False
        self.connections_active += 1
        self._live[conn] = None
        self.sim.spawn(self._handle(conn), name=f"httpd{self.node.id}.conn")
        return True

    def reset_connections(self) -> int:
        """Abort every in-flight connection (the node crashed).

        The client-visible effect of a crash is a TCP reset, which we
        model as an immediate 503 so clients fail fast instead of
        sitting out their full timeout.  Returns the number reset.
        """
        reset = 0
        for conn in list(self._live):
            if not conn.reply.triggered:
                conn.reply.succeed(HTTPResponse(status=503))
                reset += 1
        self.connections_reset += reset
        if reset and self.tracer is not None and self.tracer.active:
            self.tracer.emit(self.sim.now, "http", f"httpd-{self.node.id}",
                             "reset_connections", count=reset)
        return reset

    # -- tracing helpers ------------------------------------------------------
    def _span(self, conn: Connection, name: str, stage: str,
              **tags) -> Optional[Span]:
        """Open a child span under the connection's span (None-safe)."""
        if self.tracer is None:
            return None
        return self.tracer.start(conn.span, name, self.sim.now, stage,
                                 node=self.node.id, **tags)

    def _span_end(self, span: Optional[Span], **tags) -> None:
        """Close ``span`` at the current sim time (None-safe)."""
        if self.tracer is not None:
            self.tracer.finish(span, self.sim.now, **tags)

    # -- the §3.2 request pipeline ----------------------------------------------
    def _handle(self, conn: Connection):
        rec = conn.record
        try:
            # ---- step 1: preprocess ------------------------------------
            t0 = self.sim.now
            sp = self._span(conn, "preprocess", "preprocessing")
            # fork the handling process, then parse the HTTP command,
            # complete the pathname and determine permissions.
            yield self.node.compute(self.params.fork_ops, category="fork")
            try:
                request = self._parse(conn.raw_request)
            except HTTPError:
                yield self.node.compute(self.params.preprocess_ops,
                                        category="parsing")
                rec.add_phase("preprocessing", self.sim.now - t0)
                self._span_end(sp, error="bad_request")
                yield from self._respond(conn, HTTPResponse(status=400))
                return
            yield self.node.compute(self.params.preprocess_ops,
                                    category="parsing")
            rec.add_phase("preprocessing", self.sim.now - t0)
            self._span_end(sp)

            if request.method == "POST" and self.params.enable_post:
                # The extension the paper names as future work: POST is
                # executed as a CGI after the body is uploaded, and is
                # never redirected (it is not idempotent).
                yield from self._handle_post(conn, request)
                return
            if not request.is_supported:
                # POST etc: "not handled, but SWEB could be extended".
                yield from self._respond(conn, HTTPResponse(status=501))
                return
            path = request.path
            is_cgi = self.cgi.is_cgi(path)
            if not is_cgi and not self.fs.exists(path):
                yield from self._respond(conn, HTTPResponse(status=404))
                return

            # ---- step 2: analyze ------------------------------------------
            # "If r is already determined to be a redirection … the request
            # is always completed at x" — no second hop, no ping-pong.
            may_move = conn.redirects_left > 0 and not is_cgi
            decision = None
            if may_move:
                t1 = self.sim.now
                sp = self._span(conn, "analyze", "analysis")
                if self.policy.consults_broker:
                    yield self.node.compute(self.params.analysis_ops,
                                            category="scheduling")
                decision = self.policy.decide(self.broker, path,
                                              conn.client_latency)
                rec.add_phase("analysis", self.sim.now - t1)
                if decision is not None and self.tracer is not None:
                    # Per-candidate cost estimates become span tags, so a
                    # trace shows *why* the broker picked its node.
                    self.tracer.annotate(sp, **decision.estimate_tags())
                self._span_end(sp)

            # ---- step 3: redirection (or forwarding) -------------------------
            if decision is not None and decision.chosen != self.node.id:
                target = self.broker.view.get(decision.chosen, self.sim.now)
                if target is not None and self.params.reassignment == "forward":
                    yield from self._forward(conn, decision.chosen)
                    return
                if target is not None:
                    t2 = self.sim.now
                    sp = self._span(conn, "redirect", "redirection",
                                    to=decision.chosen)
                    yield self.node.compute(self.params.redirect_ops,
                                            category="scheduling")
                    response = redirect_response(
                        f"sweb{decision.chosen}.cs.ucsb.edu", path)
                    response.headers["X-SWEB-Node"] = str(decision.chosen)
                    rec.add_phase("redirection", self.sim.now - t2)
                    self._span_end(sp)
                    self.redirects_issued += 1
                    if self.tracer is not None and self.tracer.active:
                        self.tracer.emit(self.sim.now, "http",
                                         f"httpd-{self.node.id}", "redirect",
                                         path=path, to=decision.chosen)
                    yield from self._respond(conn, response)
                    return

            # ---- step 4: fulfillment ------------------------------------------
            yield from self._fulfill(conn, request, is_cgi)
        finally:
            self.connections_active -= 1
            self._live.pop(conn, None)

    def _forward(self, conn: Connection, target_id: int):
        """Request forwarding: ship the request over the cluster fabric,
        let the target fulfil it, relay its response back, and answer the
        client ourselves.

        §3.1 rejected this for the real system ("very difficult to
        implement within HTTP") in favour of URL redirection; it lives
        here so the trade-off — no extra client round trip, but the whole
        response crosses the interconnect twice-removed — is measurable
        (experiment X4).
        """
        rec = conn.record
        network = self.fs.network
        t0 = self.sim.now
        # The forward span stays open across the peer's whole handling so
        # the peer's spans (which hang off the inner connection) nest
        # inside it; it closes before _respond opens the send span.
        fwspan = self._span(conn, "forward", "redirection", to=target_id)
        yield self.node.compute(self.params.redirect_ops, category="scheduling")
        inner = Connection(raw_request=conn.raw_request, wan=conn.wan,
                           record=rec, reply=Event(self.sim),
                           redirects_left=0, relay_to=self, span=fwspan)
        peer = self.peers.get(target_id)
        # Ship the request text across the fabric; fall back to local
        # service if the peer cannot take it.
        yield network.transfer(self.node.id, target_id,
                               len(conn.raw_request), tag="fwd-req")
        rec.add_phase("redirection", self.sim.now - t0)
        if peer is None or not peer.try_accept(inner):
            self._span_end(fwspan, fallback=True)
            request = self._parse(conn.raw_request)
            yield from self._fulfill(conn, request,
                                     self.cgi.is_cgi(request.path))
            return
        self.forwards_issued += 1
        rec.redirected = True
        if self.tracer is not None and self.tracer.active:
            self.tracer.emit(self.sim.now, "http", f"httpd-{self.node.id}",
                             "forward", to=target_id)
        response: HTTPResponse = yield inner.reply
        self._span_end(fwspan)
        # The relayed response now leaves through *our* NIC.
        yield from self._respond(conn, response, phase="data_transfer")

    def _parse(self, raw: str) -> HTTPRequest:
        """Parse ``raw`` (once per distinct text); raises HTTPError."""
        request = self._parsed.get(raw)
        if request is None:
            request = self._parsed[raw] = HTTPRequest.parse(raw)
        return request

    def _wire_bytes(self, response: HTTPResponse) -> float:
        """``response.wire_bytes``, formatting each distinct header once."""
        body = response.body_bytes
        key = (response.version, response.status,
               tuple(response.headers.items()), body)
        header = self._header_bytes.get(key)
        if header is None:
            header = self._header_bytes[key] = response.header_bytes
        return header + body

    def _handle_post(self, conn: Connection, request: HTTPRequest):
        """POST: upload the body, then run the target CGI locally."""
        rec = conn.record
        path = request.path
        if not self.cgi.is_cgi(path):
            yield from self._respond(conn, HTTPResponse(status=501))
            return
        t0 = self.sim.now
        sp = self._span(conn, "upload", "network", bytes=conn.body_bytes)
        if conn.body_bytes > 0:
            # The body flows up the client's WAN path into our NIC.
            yield self.internet.send(self.node.nic, conn.wan,
                                     conn.body_bytes,
                                     tag=f"upload{rec.req_id}")
        rec.add_phase("network", self.sim.now - t0)
        self._span_end(sp)
        yield from self._fulfill(conn, request, is_cgi=True)

    def _fulfill(self, conn: Connection, request: HTTPRequest, is_cgi: bool):
        rec = conn.record
        path = request.path
        t0 = self.sim.now
        sp = self._span(conn, "fulfill", "data_transfer", cgi=is_cgi)
        if is_cgi:
            prog = self.cgi.lookup(path)
            # A CGI may scan a data file before computing.
            if prog.reads_path is not None and self.fs.exists(prog.reads_path):
                yield from self.fs.read(prog.reads_path,
                                        at_node=self.node.id, ctx=sp)
            yield self.node.compute(prog.cpu_ops, category="cgi")
            body = prog.output_bytes
        else:
            outcome = yield from self.fs.read(path, at_node=self.node.id,
                                              ctx=sp)
            body = outcome.nbytes
            rec.source = outcome.source
            if self.heat is not None:
                self.heat.record(path, body)
            if self.tracer is not None and self.tracer.active:
                self.tracer.emit(self.sim.now, "io", f"httpd-{self.node.id}",
                                 "file_read", path=path,
                                 source=outcome.source, remote=outcome.remote)
        response = HTTPResponse(status=200, body_bytes=body)
        if request.method == "HEAD":
            response.body_bytes = 0.0
        rec.add_phase("data_transfer", self.sim.now - t0)
        self._span_end(sp, source=rec.source, bytes=body)
        rec.served_by = self.node.id
        # Feed the measured cost back to a learning oracle, if one is
        # installed (AdaptiveOracle; plain Oracle has no observe()).
        observe = getattr(self.broker.oracle, "observe", None)
        if observe is not None and not is_cgi and body > 0:
            observe(path, body, self.params.send_ops_per_byte * body)
        yield from self._respond(conn, response, phase="data_transfer")

    def _respond(self, conn: Connection, response: HTTPResponse,
                 phase: str = "network"):
        """Push the response onto the wire; completes when the last byte
        reaches the client, then wakes the client.

        The TCP stack's packetising/marshalling CPU is charged
        concurrently with the transfer (the stack overlaps with the wire),
        so big responses raise the node's run queue — the "processor load
        caused by the overhead necessary to send bytes out" of §3."""
        if conn.reply.triggered:
            # The connection was reset (node crash) while this handler was
            # mid-pipeline: the client already got its 503; nothing to send.
            return
        t0 = self.sim.now
        wire_bytes = self._wire_bytes(response)
        sp = self._span(conn, "send", phase, status=response.status,
                        bytes=wire_bytes)
        if conn.relay_to is not None:
            # Forwarded request: relay the response across the fabric to
            # the origin node, which owns the client connection.
            wire = self.fs.network.transfer(self.node.id,
                                            conn.relay_to.node.id,
                                            wire_bytes,
                                            tag=f"relay{conn.record.req_id}")
        else:
            wire = self.internet.send(self.node.nic, conn.wan, wire_bytes,
                                      tag=f"resp{conn.record.req_id}")
        send_ops = self.params.send_ops_per_byte * response.body_bytes
        if send_ops > 0:
            stack = self.node.compute(send_ops, category="send")
            yield join(self.sim, (wire, stack))
        else:
            yield wire
        self._span_end(sp)
        if conn.reply.triggered:
            # Reset while the response was on the wire: the client already
            # saw the 503 and moved on.
            return
        conn.record.add_phase(phase, self.sim.now - t0)
        self.requests_handled += 1
        # Settled in place: the client resumes in this dispatch.
        conn.reply.settle(response)

    def __repr__(self) -> str:
        return (f"<HTTPServer node={self.node.id} policy={self.policy.name} "
                f"active={self.connections_active}/{self.backlog}>")
