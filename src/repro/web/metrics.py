"""Per-request records and aggregate metrics.

The paper reports: response time ("from when a request is initiated until
all the requested information arrives at the client"), drop rate, maximum
sustained rps, the Table 5 per-phase cost breakdown, and the §4.3
server-side CPU shares.  Everything here exists to produce those numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..obs import LATENCY_BUCKETS, MetricsRegistry, percentile
from ..sim import PhaseAccumulator, Summary

__all__ = ["RequestRecord", "Metrics", "PHASE_NAMES", "DROP_REASONS"]

#: Canonical phase keys, matching Table 5's row labels.
PHASE_NAMES = (
    "preprocessing",    # fork + parsing HTTP commands + pathname/permissions
    "analysis",         # SWEB: broker cost estimation
    "redirection",      # SWEB: generating the 302 + the extra client trip
    "data_transfer",    # disk/cache/NFS read + pushing bytes to the client
    "network",          # DNS, connect, WAN latencies
)

#: Why a client gives a request up: the server refused the connection,
#: the deadline passed, no live node resolved, or the serving node
#: crashed mid-request and no retry was left.
DROP_REASONS = ("refused", "timeout", "dns", "reset")


@dataclass
class RequestRecord:
    """The life of one HTTP request, as the client experiences it."""

    req_id: int
    path: str
    start: float
    client: str = "local"
    size: float = 0.0
    end: Optional[float] = None
    status: Optional[int] = None
    ok: bool = False
    dropped: bool = False
    drop_reason: Optional[str] = None   # one of DROP_REASONS
    dns_node: Optional[int] = None      # where the DNS rotation sent it
    served_by: Optional[int] = None     # node that fulfilled it
    redirected: bool = False
    #: connection retries performed (graceful degradation only)
    retries: int = 0
    #: how the serving node produced the bytes: "cache" | "disk" | None
    #: (errors, drops and CGI output)
    source: Optional[str] = None
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def response_time(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def add_phase(self, phase: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative phase duration {phase!r}: {duration}")
        self.phases[phase] = self.phases.get(phase, 0.0) + duration


class Metrics:
    """Aggregates request records into the paper's reported quantities."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.records: list[RequestRecord] = []
        #: the run-wide metrics registry this aggregator publishes into;
        #: a private one is created for standalone Metrics() use
        #: (SWEBCluster always passes the cluster's shared registry)
        self.registry = registry if registry is not None else MetricsRegistry()
        #: request-lifecycle counters, registered as the ``http.*``
        #: namespace of :attr:`registry`
        self.counters = self.registry.counters("http")
        #: completed-request latency histogram (fixed buckets, so p50 /
        #: p95 / p99 are available without rescanning the records)
        self.response_histogram = self.registry.histogram(
            "http.response_time_s", bounds=LATENCY_BUCKETS)
        self._next_id = 0

    # -- record lifecycle -------------------------------------------------
    def new_record(self, path: str, start: float, client: str = "local",
                   size: float = 0.0) -> RequestRecord:
        rec = RequestRecord(req_id=self._next_id, path=path, start=start,
                            client=client, size=size)
        self._next_id += 1
        self.records.append(rec)
        self.counters.incr("requests")
        return rec

    def finish(self, rec: RequestRecord, end: float, status: int) -> None:
        rec.end = end
        rec.status = status
        rec.ok = status == 200
        self.counters.incr(f"status_{status}")
        if rec.ok:
            self.counters.incr("completed")
            response_time = rec.response_time
            if response_time is not None:
                self.response_histogram.record(response_time)
        if rec.redirected:
            self.counters.incr("redirected")

    def drop(self, rec: RequestRecord, end: float, reason: str) -> None:
        rec.end = end
        rec.dropped = True
        rec.drop_reason = reason
        self.counters.incr("dropped")
        self.counters.incr(f"dropped_{reason}")

    # -- aggregates -------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return self.counters["completed"]

    @property
    def dropped(self) -> int:
        return self.counters["dropped"]

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.total if self.total else 0.0

    def response_times(self, only_ok: bool = True) -> list[float]:
        return [rec.response_time for rec in self.records
                if not (rec.dropped or rec.end is None)
                and (rec.ok or not only_ok)]

    def response_summary(self) -> Summary:
        return Summary.of(self.response_times())

    def mean_response_time(self) -> float:
        times = self.response_times()
        return float(np.mean(times)) if times else float("nan")

    def response_percentile(self, q: float, only_ok: bool = True) -> float:
        """Exact response-time percentile over completed requests.

        Routes through the shared :mod:`repro.obs.percentiles` helper —
        the same math as :class:`Summary` — so reports quoting "p95"
        can never disagree with the summary table (``nan`` when no
        requests completed)."""
        return percentile(self.response_times(only_ok=only_ok), q)

    def phase_breakdown(self, only_ok: bool = True) -> PhaseAccumulator:
        """Average per-phase costs across requests (Table 5)."""
        acc = PhaseAccumulator()
        for rec in self.records:
            if rec.dropped or (only_ok and not rec.ok):
                continue
            for phase, duration in rec.phases.items():
                acc.record(phase, duration)
        return acc

    def served_by_histogram(self) -> dict[int, int]:
        """How many completed requests each node fulfilled."""
        hist: dict[int, int] = {}
        for rec in self.records:
            if rec.ok and rec.served_by is not None:
                hist[rec.served_by] = hist.get(rec.served_by, 0) + 1
        return hist

    def __repr__(self) -> str:
        return (f"<Metrics total={self.total} completed={self.completed} "
                f"dropped={self.dropped}>")
