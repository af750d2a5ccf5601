"""Structured event tracing.

Every subsystem can emit timestamped, categorised records into a shared
:class:`Trace`.  Experiments use it to render Figure 1 (the HTTP
transaction sequence) and Figure 3 (broker/oracle/loadd interactions), and
tests use it to assert orderings without poking at internals.

Tracing costs ~nothing when off: the hot paths check :attr:`Trace.active`
before even building a record's detail dict, and ``max_records`` caps the
log (once full, the trace deactivates itself).

See docs/METRICS.md for the API and docs/PERFORMANCE.md for the cost
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

__all__ = ["TraceRecord", "Trace"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace line: when, which component, what happened, details."""

    time: float
    category: str
    actor: str
    action: str
    detail: dict[str, Any]

    def format(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:10.6f}] {self.category:>9} {self.actor:<14} {self.action:<18} {kv}"


class Trace:
    """An append-only, filterable log of :class:`TraceRecord`.

    ``enabled=False`` builds a trace that records nothing; ``max_records``
    bounds the log.
    """

    def __init__(self, enabled: bool = True,
                 max_records: Optional[int] = None) -> None:
        self.max_records = max_records
        self.records: list[TraceRecord] = []
        #: cheap gate hot paths read before building a record's detail
        self.active = bool(enabled) and (max_records is None or max_records > 0)

    def emit(self, time: float, category: str, actor: str, action: str,
             **detail: Any) -> None:
        """Append a record (no-op when inactive)."""
        if not self.active:
            return
        self.records.append(TraceRecord(time, category, actor, action, detail))
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.active = False

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def filter(self, category: Optional[str] = None, actor: Optional[str] = None,
               action: Optional[str] = None,
               predicate: Optional[Callable[[TraceRecord], bool]] = None,
               ) -> list[TraceRecord]:
        """Records matching all the given criteria, in time order."""
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
        """Human-readable dump of the matching records."""
        return "\n".join(rec.format() for rec in self.filter(**kwargs))
