"""repro.obs — deterministic per-request tracing and metrics registry.

The observability layer sits at the very bottom of the stack (below even
``repro.sim``): pure data structures with zero simulation dependencies,
so every other layer may publish into it.  Four pieces:

* :mod:`repro.obs.spans` — the one tracer: :class:`Tracer` holds the
  causal span model (:class:`Span` / :class:`RequestTrace`, giving each
  request a per-stage time breakdown that reconciles with its terminal
  latency) and the cluster-wide event log of :class:`TraceRecord`;
* :mod:`repro.obs.registry` — :class:`MetricsRegistry` with counters,
  gauges and fixed-bucket :class:`Histogram` percentiles (p50/p95/p99
  without raw-sample storage); registries are per-process but their
  snapshots combine across processes via :func:`merge_snapshots`;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON and a text
  flame rollup (pure renderers; the CLI owns file I/O);
* :mod:`repro.obs.percentiles` — the one shared implementation of
  exact percentile math (``sim.stats`` routes through it).

Tracing is observation-only by construction: the tracer reads the sim
clock but never schedules events, so enabling it cannot change any
simulation outcome.  See ``docs/TRACING.md``.
"""

from .export import CLIENT_PID, chrome_trace, flame_rollup, render_chrome_trace
from .percentiles import percentile, percentiles
from .registry import (
    CounterGroup,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    exponential_buckets,
    merge_snapshots,
)
from .spans import STAGES, RequestTrace, Span, TraceRecord, Tracer

__all__ = [
    "CLIENT_PID",
    "CounterGroup",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "RequestTrace",
    "STAGES",
    "Span",
    "TraceRecord",
    "Tracer",
    "chrome_trace",
    "exponential_buckets",
    "flame_rollup",
    "merge_snapshots",
    "percentile",
    "percentiles",
    "render_chrome_trace",
]
