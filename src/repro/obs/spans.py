"""The one tracer: causal per-request spans plus the cluster event log.

The paper's §3–4 evaluation decomposes per-request completion time into
``t_redirection + t_data + t_CPU + t_net``; the aggregate metrics can
report the terminal sums but not *where* a slow request spent its time.
This module provides the missing causal model:

* :class:`Span` — one timed operation (DNS lookup, broker analysis, NFS
  transfer, ...) with sim-clock ``start``/``end`` timestamps, a parent
  link, the node it ran on, and free-form tags;
* :class:`RequestTrace` — every span of one request, assembled under a
  single root whose duration is the client-observed response time, with
  :meth:`RequestTrace.breakdown` reconciling the per-stage sums against
  the terminal latency (any un-instrumented remainder is reported
  explicitly as ``"other"``, never silently dropped);
* :class:`TraceRecord` — one point event (a loadd broadcast, a broker
  decision, a fault, a placement) that no single request owns;
* :class:`Tracer` — the per-run collector every instrumentation site
  talks to.  It keeps the two record kinds in separate lists: spans per
  sampled request, and one time-ordered event log that
  :meth:`Tracer.render` turns into Figure 1/Figure 3 text.  Span methods
  are ``None``-tolerant: when the request was not sampled the root
  handle is ``None`` and every child ``start``/``finish`` call no-ops;
  event sites check :attr:`Tracer.active` before building a record.
  The tracer only *reads* the sim clock — it never schedules events —
  so attaching one cannot perturb the simulation
  (``tests/test_obs_export.py`` pins this against the determinism
  golden).

Invariants (property-tested in ``tests/test_obs_model.py``): spans nest
inside their parent without sibling overlap, timestamps are monotone in
sim time, child durations sum to at most the parent's, and stage totals
reconcile with the request's terminal latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = ["STAGES", "Span", "RequestTrace", "TraceRecord", "Tracer"]

#: Canonical stage buckets spans are rolled up into.  The first five
#: mirror ``repro.web.metrics.PHASE_NAMES`` (Table 5's rows); ``other``
#: is the synthesized remainder that makes breakdowns sum to the
#: terminal latency.
STAGES: tuple[str, ...] = (
    "preprocessing", "analysis", "redirection", "data_transfer",
    "network", "other",
)

#: Tolerance for float comparisons on sim-clock sums.
_EPS = 1e-9


@dataclass
class Span:
    """One timed operation within a request.

    ``end`` is ``None`` while the span is open.  ``node`` is the cluster
    node the work ran on, or ``None`` for client/WAN-side work.
    """

    span_id: int
    req_id: int
    parent_id: Optional[int]
    name: str
    stage: str
    start: float
    end: Optional[float] = None
    node: Optional[int] = None
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Elapsed sim seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.closed else "open"
        return (f"<Span {self.span_id} {self.name!r} stage={self.stage} "
                f"req={self.req_id} {state}>")


class RequestTrace:
    """Every span of one request, in creation order under one root."""

    def __init__(self, req_id: int, path: str, client: str = "") -> None:
        self.req_id = req_id
        self.path = path
        self.client = client
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}

    def add(self, span: Span) -> None:
        """Append a span (called by the tracer, in creation order)."""
        self.spans.append(span)
        self._by_id[span.span_id] = span

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    @property
    def root(self) -> Optional[Span]:
        """The request-level span (parentless; ``None`` when empty)."""
        for span in self.spans:
            if span.parent_id is None:
                return span
        return None

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def children(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in creation order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    # -- rollups ----------------------------------------------------------
    def stage_totals(self) -> dict[str, float]:
        """Sim seconds per stage, summed over *top-level* spans only.

        Nested spans (an NFS transfer inside a fulfillment span) are
        detail within their parent's stage; counting only the root's
        direct children keeps the totals double-count-free.
        """
        root = self.root
        totals: dict[str, float] = {}
        if root is None:
            return totals
        for span in self.children(root):
            if span.closed:
                totals[span.stage] = totals.get(span.stage, 0.0) + span.duration
        return totals

    def breakdown(self, latency: Optional[float] = None) -> dict[str, float]:
        """Per-stage decomposition that sums exactly to ``latency``.

        ``latency`` defaults to the root span's duration.  Whatever the
        instrumented stages do not cover is reported as ``"other"``
        (client think-gaps, wire time overlapped with server work), so
        ``sum(breakdown().values()) == latency`` always holds.
        """
        if latency is None:
            root = self.root
            latency = root.duration if root is not None else 0.0
        totals = self.stage_totals()
        covered = sum(totals.values())
        totals["other"] = max(0.0, latency - covered)
        return totals

    def reconciles(self, latency: float, tol: float = 1e-6) -> bool:
        """True when the stage sums are consistent with ``latency``:
        they cover no more than the terminal time (within ``tol``) and
        the explicit breakdown sums back to it exactly."""
        covered = sum(self.stage_totals().values())
        if covered > latency + tol:
            return False
        return abs(sum(self.breakdown(latency).values()) - latency) <= tol

    # -- validation (the property-tested contract) ------------------------
    def problems(self) -> list[str]:
        """Structural-invariant violations (empty list = well-formed).

        Checks: exactly one root; every span closed with ``end >=
        start``; children lie within their parent's interval; siblings
        do not overlap; child durations sum to at most the parent's.
        """
        out: list[str] = []
        roots = [s for s in self.spans if s.parent_id is None]
        if len(roots) != 1:
            out.append(f"expected exactly one root span, found {len(roots)}")
        for span in self.spans:
            if not span.closed:
                out.append(f"span {span.span_id} ({span.name}) never closed")
                continue
            assert span.end is not None
            if span.end < span.start - _EPS:
                out.append(f"span {span.span_id} ends before it starts")
            if span.parent_id is not None:
                parent = self._by_id.get(span.parent_id)
                if parent is None:
                    out.append(f"span {span.span_id} has unknown parent "
                               f"{span.parent_id}")
                elif parent.closed:
                    assert parent.end is not None
                    if (span.start < parent.start - _EPS
                            or span.end > parent.end + _EPS):
                        out.append(
                            f"span {span.span_id} ({span.name}) escapes its "
                            f"parent {parent.span_id} ({parent.name})")
        for span in self.spans:
            kids = [k for k in self.children(span) if k.closed]
            kids.sort(key=lambda s: (s.start, s.span_id))
            for a, b in zip(kids, kids[1:]):
                assert a.end is not None
                if b.start < a.end - _EPS:
                    out.append(f"siblings {a.span_id} ({a.name}) and "
                               f"{b.span_id} ({b.name}) overlap")
            if span.closed and kids:
                child_sum = sum(k.duration for k in kids)
                if child_sum > span.duration + _EPS:
                    out.append(f"children of span {span.span_id} "
                               f"({span.name}) sum past their parent")
        return out

    def __repr__(self) -> str:
        return (f"<RequestTrace req={self.req_id} path={self.path!r} "
                f"spans={len(self.spans)}>")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One event-log line: when, which component, what happened, details."""

    time: float
    category: str
    actor: str
    action: str
    detail: dict[str, Any]

    def format(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:10.6f}] {self.category:>9} {self.actor:<14} {self.action:<18} {kv}"


class Tracer:
    """Per-run collector: head-sampled request spans and a capped event log.

    ``max_requests`` bounds how many requests get a span trace (the first
    N to start, deterministic because request ids are issued in sim-event
    order); ``max_records`` bounds the event log (once full, :attr:`active`
    drops to ``False``).  ``None`` means no cap and ``0`` turns that kind
    off, so a caller that wants only one kind zeroes the other cap.  No
    tracer at all (``tracer=None``) is how tracing is switched off.

    All ``start`` / ``finish`` / ``annotate`` calls tolerate ``None``
    handles so span sites need no conditionals beyond obtaining the root.
    A tracer serves one cluster run: request ids restart at 0 in every
    cluster, so :meth:`begin` rejects an id it already holds.
    """

    def __init__(self, max_requests: Optional[int] = None,
                 max_records: Optional[int] = None) -> None:
        for name, cap in (("max_requests", max_requests),
                          ("max_records", max_records)):
            if cap is not None and cap < 0:
                raise ValueError(f"{name} must be >= 0 or None, got {cap}")
        self.max_requests = max_requests
        self.max_records = max_records
        self.records: list[TraceRecord] = []
        #: cheap gate event sites read before building a record's detail
        self.active = max_records is None or max_records > 0
        self._traces: dict[int, RequestTrace] = {}
        self._next_span_id = 0

    # -- the event log ----------------------------------------------------
    def emit(self, time: float, category: str, actor: str, action: str,
             **detail: Any) -> None:
        """Append an event record (no-op once the log is full)."""
        if not self.active:
            return
        self.records.append(TraceRecord(time, category, actor, action, detail))
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.active = False

    def filter(self, category: Optional[str] = None, actor: Optional[str] = None,
               action: Optional[str] = None,
               predicate: Optional[Callable[[TraceRecord], bool]] = None,
               ) -> list[TraceRecord]:
        """Event records matching all the given criteria, in time order."""
        out = []
        for rec in self.records:
            if category is not None and rec.category != category:
                continue
            if actor is not None and rec.actor != actor:
                continue
            if action is not None and rec.action != action:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def render(self, **kwargs: Any) -> str:
        """Human-readable dump of the matching event records."""
        return "\n".join(rec.format() for rec in self.filter(**kwargs))

    # -- span lifecycle ---------------------------------------------------
    def begin(self, req_id: int, path: str, client: str,
              t: float) -> Optional[Span]:
        """Open a request's root span; ``None`` when not sampled."""
        if req_id in self._traces:
            raise ValueError(
                f"request id {req_id} is already traced: a Tracer serves "
                f"one cluster run, and every cluster numbers requests from 0")
        if (self.max_requests is not None
                and len(self._traces) >= self.max_requests):
            return None
        trace = RequestTrace(req_id, path, client)
        self._traces[req_id] = trace
        return self._make(trace, parent_id=None, name="request",
                          stage="request", t=t, node=None,
                          tags={"path": path, "client": client})

    def start(self, parent: Optional[Span], name: str, t: float,
              stage: str, node: Optional[int] = None,
              **tags: Any) -> Optional[Span]:
        """Open a child span under ``parent`` (no-op on ``None``)."""
        if parent is None:
            return None
        trace = self._traces.get(parent.req_id)
        if trace is None:
            return None
        return self._make(trace, parent_id=parent.span_id, name=name,
                          stage=stage, t=t, node=node, tags=dict(tags))

    def finish(self, span: Optional[Span], t: float, **tags: Any) -> None:
        """Close ``span`` at sim time ``t`` (no-op on ``None``)."""
        if span is None:
            return
        span.end = t
        if tags:
            span.tags.update(tags)

    def annotate(self, span: Optional[Span], **tags: Any) -> None:
        """Attach tags to an open or closed span (no-op on ``None``)."""
        if span is not None and tags:
            span.tags.update(tags)

    def _make(self, trace: RequestTrace, parent_id: Optional[int],
              name: str, stage: str, t: float, node: Optional[int],
              tags: dict[str, Any]) -> Span:
        span = Span(span_id=self._next_span_id, req_id=trace.req_id,
                    parent_id=parent_id, name=name, stage=stage,
                    start=t, node=node, tags=tags)
        self._next_span_id += 1
        trace.add(span)
        return span

    # -- access -----------------------------------------------------------
    def get(self, req_id: int) -> Optional[RequestTrace]:
        """The trace for one request id, if it was sampled."""
        return self._traces.get(req_id)

    def traces(self) -> list[RequestTrace]:
        """Every collected trace, in request-id order."""
        return [self._traces[k] for k in sorted(self._traces)]

    def __len__(self) -> int:
        return len(self._traces)

    def __repr__(self) -> str:
        def cap(n: Optional[int]) -> str:
            return "∞" if n is None else str(n)
        return (f"<Tracer traces={len(self._traces)}/{cap(self.max_requests)} "
                f"records={len(self.records)}/{cap(self.max_records)}>")
