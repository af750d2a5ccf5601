"""Run validation: invariant checks over a completed scenario.

Simulation results are only as trustworthy as their bookkeeping, so this
module re-derives a scenario's headline numbers from first principles
and cross-checks them.  The benchmark harness and downstream users can
call :func:`validate_result` after any run; a violation raises
:class:`ValidationError` with the exact records involved.

Checked invariants:

* **settlement** — every request either completed with a status or was
  dropped with a reason; none left dangling;
* **accounting** — completed + dropped + errored == total;
* **causality** — end >= start for every settled request; phases are
  non-negative and sum to ≈ the response time for successful GETs;
* **placement** — served_by / dns_node are real nodes; non-redirected
  requests were served where DNS sent them;
* **conservation** — Internet bytes sent ≥ bytes of all delivered
  bodies; every node's CPU-seconds ≤ elapsed time;
* **caches** — hit + miss counts equal the file system's read count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..web import DROP_REASONS

if TYPE_CHECKING:  # pragma: no cover
    from .runner import ScenarioResult

__all__ = ["ValidationError", "ValidationReport", "validate_result"]

_REL_TOL = 0.05


class ValidationError(AssertionError):
    """An invariant violation in a completed run."""


@dataclass
class ValidationReport:
    """What was checked and what was found."""

    checks: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def note(self, check: str) -> None:
        self.checks.append(check)

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def raise_if_failed(self) -> None:
        if self.violations:
            raise ValidationError("; ".join(self.violations))


def validate_result(result: "ScenarioResult",
                    strict: bool = True) -> ValidationReport:
    """Check every invariant; raises on violation unless ``strict=False``."""
    report = ValidationReport()
    metrics = result.metrics
    cluster = result.cluster
    n_nodes = len(cluster.nodes)

    # -- settlement & accounting --------------------------------------------
    report.note("settlement")
    errored = 0
    for rec in metrics.records:
        if rec.end is None:
            report.fail(f"request {rec.req_id} never settled")
        elif rec.dropped:
            if rec.drop_reason not in DROP_REASONS:
                report.fail(f"request {rec.req_id} has unknown drop reason "
                            f"{rec.drop_reason!r}")
        elif rec.status is None:
            report.fail(f"request {rec.req_id} finished without a status")
        elif not rec.ok:
            errored += 1
    report.note("accounting")
    if metrics.completed + metrics.dropped + errored != metrics.total:
        report.fail(
            f"accounting mismatch: {metrics.completed} ok + "
            f"{metrics.dropped} dropped + {errored} errors != "
            f"{metrics.total} total")

    # -- causality ---------------------------------------------------------------
    report.note("causality")
    for rec in metrics.records:
        if rec.end is not None and rec.end < rec.start - 1e-9:
            report.fail(f"request {rec.req_id} ends before it starts")
        for phase, duration in rec.phases.items():
            if duration < -1e-12:
                report.fail(f"request {rec.req_id} phase {phase} negative")
        if rec.ok and rec.phases and rec.end is not None:
            total_phases = sum(rec.phases.values())
            rt = rec.response_time
            if rt > 1e-9 and abs(total_phases - rt) > _REL_TOL * rt:
                report.fail(
                    f"request {rec.req_id} phases sum {total_phases:.4f} != "
                    f"response time {rt:.4f}")

    # -- placement -----------------------------------------------------------------
    report.note("placement")
    for rec in metrics.records:
        if rec.dns_node is not None and not 0 <= rec.dns_node < n_nodes:
            report.fail(f"request {rec.req_id} dns_node {rec.dns_node} "
                        f"out of range")
        if rec.ok:
            if rec.served_by is None or not 0 <= rec.served_by < n_nodes:
                report.fail(f"request {rec.req_id} served_by invalid")
            elif not rec.redirected and rec.served_by != rec.dns_node:
                report.fail(
                    f"request {rec.req_id} moved ({rec.dns_node} -> "
                    f"{rec.served_by}) without being marked redirected")

    # -- conservation --------------------------------------------------------------
    report.note("conservation")
    delivered = sum(rec.size for rec in metrics.records if rec.ok)
    if cluster.internet.bytes_sent + 1e-6 < delivered:
        report.fail(
            f"internet carried {cluster.internet.bytes_sent:.0f} B but "
            f"{delivered:.0f} B of bodies were delivered")
    elapsed = cluster.sim.now
    for node in cluster.nodes:
        busy = sum(node.cpu_seconds_by_category().values())
        if busy > elapsed * 1.001 + 1e-9:
            report.fail(f"{node.name} consumed {busy:.2f}s CPU in "
                        f"{elapsed:.2f}s of simulated time")

    # -- caches ---------------------------------------------------------------------
    report.note("caches")
    lookups = sum(n.cache.hits + n.cache.misses for n in cluster.nodes)
    reads = cluster.fs.local_reads + cluster.fs.remote_reads
    if lookups < reads:
        report.fail(f"cache lookups ({lookups}) fewer than file reads "
                    f"({reads})")

    if strict:
        report.raise_if_failed()
    return report
