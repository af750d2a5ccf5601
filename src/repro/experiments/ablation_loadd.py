"""Ablation X2 — load-broadcast period and Δ-inflation sweeps.

DESIGN.md §5: the paper fixes the loadd period at 2–3 s and Δ at 30 %
with one sentence of justification each.  We sweep both:

* staler load information should degrade scheduling quality;
* Δ = 0 re-creates the "unsynchronized overloading" herd of [SHK95]
  (every broker routes to the same believed-idle node).
"""

from __future__ import annotations

from dataclasses import replace

from ..core import CostParameters
from .base import ExperimentReport
from .runner import ScenarioResult, run_scenario
from .table3 import table3_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run"]


def _cell(params: CostParameters, rps: int,
          duration: float) -> ScenarioResult:
    return run_scenario(table3_scenario(rps, duration=duration,
                                        params=params))


def run(fast: bool = True) -> ExperimentReport:
    duration = 15.0 if fast else 30.0
    rps = 25
    periods = (0.5, 2.5, 10.0) if fast else (0.5, 2.5, 10.0, 30.0)
    deltas = (0.0, 0.30, 1.0)

    rows = []
    period_results: dict[float, ScenarioResult] = {}
    for period in periods:
        params = replace(CostParameters(), loadd_period=period,
                         staleness_timeout=max(8.0, 3.2 * period))
        res = _cell(params, rps, duration)
        period_results[period] = res
        rows.append([f"period = {period:g}s (delta 0.3)",
                     res.mean_response_time, res.drop_rate * 100.0,
                     res.redirection_rate * 100.0])
    delta_results: dict[float, ScenarioResult] = {}
    for delta in deltas:
        params = replace(CostParameters(), delta=delta)
        res = _cell(params, rps, duration)
        delta_results[delta] = res
        rows.append([f"delta = {delta:g} (period 2.5s)",
                     res.mean_response_time, res.drop_rate * 100.0,
                     res.redirection_rate * 100.0])

    table = render_table(
        headers=["variant", "time (s)", "drop (%)", "redirected (%)"],
        rows=rows,
        title=f"Ablation X2 — loadd period & Δ-inflation, {rps} rps "
              f"non-uniform, Meiko-6", floatfmt=".3f")

    fresh = period_results[min(periods)].mean_response_time
    stale = period_results[max(periods)].mean_response_time
    comparisons = [
        ComparisonRow(
            "staleness costs performance",
            "2-3s period chosen as cheap-but-fresh",
            f"{min(periods):g}s: {fresh:.3f}s vs {max(periods):g}s: "
            f"{stale:.3f}s",
            "fresher info never worse (within 10%)",
            ok=fresh <= 1.10 * stale),
        ComparisonRow(
            "delta=0 herds onto believed-idle nodes",
            "Δ=30% found effective [SHK95]",
            f"Δ=0: {delta_results[0.0].redirection_rate:.0%} redirected vs "
            f"Δ=0.3: {delta_results[0.30].redirection_rate:.0%}",
            "Δ=0 redirects at least as much",
            ok=delta_results[0.0].redirection_rate
               >= delta_results[0.30].redirection_rate),
        ComparisonRow(
            "paper's operating point is sane",
            "period 2.5s, Δ=0.3",
            f"{period_results[2.5].mean_response_time:.3f}s",
            "within 20% of the best swept variant",
            ok=period_results[2.5].mean_response_time <= 1.20 * min(
                [r.mean_response_time for r in period_results.values()]
                + [r.mean_response_time for r in delta_results.values()])),
    ]
    notes = ("staleness_timeout scales with the period so long periods do "
             "not spuriously mark nodes unavailable.")
    return ExperimentReport(exp_id="X2", title="loadd period & Δ ablation",
                            table=table,
                            data={"periods": {p: r.mean_response_time
                                              for p, r in period_results.items()},
                                  "deltas": {d: r.mean_response_time
                                             for d, r in delta_results.items()}},
                            comparisons=comparisons, notes=notes)
