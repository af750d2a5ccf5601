"""Ablation X1 — knocking out cost-model terms one at a time.

DESIGN.md §5: is the *multi-faceted* part of the scheduler actually
earning its keep?  We rerun the heavy Table 3 cell with individual terms
of t_s disabled, plus the single-faceted CPU-only policy the paper
argues against ([SHK95]/[GDI93] style).
"""

from __future__ import annotations

from dataclasses import replace

from ..core import CostParameters
from .base import ExperimentReport
from .runner import ScenarioResult, run_scenario
from .table3 import table3_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run", "VARIANTS"]

VARIANTS = {
    "sweb (full)": {},
    "no t_data": {"use_data_term": False},
    "no t_cpu": {"use_cpu_term": False},
    "no t_redirection": {"use_redirection_term": False},
}


def _cell(policy: str, params: CostParameters, rps: int,
          duration: float) -> ScenarioResult:
    return run_scenario(table3_scenario(rps, policy, duration,
                                        params=params))


def run(fast: bool = True) -> ExperimentReport:
    duration = 15.0 if fast else 30.0
    rps = 25

    results: dict[str, ScenarioResult] = {}
    for label, knockouts in VARIANTS.items():
        params = replace(CostParameters(), **knockouts)
        results[label] = _cell("sweb", params, rps, duration)
    results["cpu-only (single-faceted)"] = _cell(
        "cpu-only", CostParameters(), rps, duration)
    results["round-robin"] = _cell("round-robin", CostParameters(), rps,
                                   duration)

    rows = [[label, res.mean_response_time, res.drop_rate * 100.0,
             res.redirection_rate * 100.0]
            for label, res in results.items()]
    table = render_table(
        headers=["variant", "time (s)", "drop (%)", "redirected (%)"],
        rows=rows,
        title=f"Ablation X1 — cost-model terms, {rps} rps non-uniform, "
              f"Meiko-6", floatfmt=".3f")

    full = results["sweb (full)"].mean_response_time
    comparisons = [
        ComparisonRow(
            "full model is competitive",
            "multi-faceted wins (§3.2)",
            f"{full:.3f}s (best variant "
            f"{min(r.mean_response_time for r in results.values()):.3f}s)",
            "full within 15% of the best variant",
            ok=full < 1.15 * min(r.mean_response_time
                                 for r in results.values())),
        ComparisonRow(
            "t_redirection term never pays to drop",
            "the margin guards against churn",
            f"no-term: {results['no t_redirection'].mean_response_time:.3f}s/"
            f"{results['no t_redirection'].redirection_rate:.0%} redirected "
            f"vs full {results['sweb (full)'].mean_response_time:.3f}s/"
            f"{results['sweb (full)'].redirection_rate:.0%}",
            "dropping the term never improves response time",
            ok=results["no t_redirection"].mean_response_time
               >= 0.95 * results["sweb (full)"].mean_response_time),
        ComparisonRow(
            "multi-faceted beats single-faceted",
            "CPU load alone is insufficient (§1)",
            f"full {full:.3f}s vs cpu-only "
            f"{results['cpu-only (single-faceted)'].mean_response_time:.3f}s",
            "full no worse than cpu-only",
            ok=full <= 1.05 * results["cpu-only (single-faceted)"]
               .mean_response_time),
    ]
    notes = "Same workload and seed for every variant; only t_s changes."
    return ExperimentReport(exp_id="X1", title="Cost-term ablation",
                            table=table,
                            data={l: r.mean_response_time
                                  for l, r in results.items()},
                            comparisons=comparisons, notes=notes)
