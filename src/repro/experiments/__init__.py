"""Experiment harness: one module per table/figure of the paper.

Registry:

====  =============================================  =================
id    artifact                                       module
====  =============================================  =================
T1    Table 1 — maximum rps                          table1
T2    Table 2 — response/drop vs #nodes              table2
T3    Table 3 — non-uniform sizes, policy compare    table3
T4    Table 4 — uniform 1.5 MB on NOW Ethernet       table4
T5    Table 5 — cost distribution                    table5
F1    Figure 1 — HTTP transaction                    figure1
F2    Figure 2 — two-stage assignment architecture   figure2
F3    Figure 3 — scheduler functional modules        figure3
S1    §3.3 analysis vs simulation                    analysis_vs_sim
S2    §4.2 skewed hot-file test                      skewed
S3    §4.3 server-side overhead                      overhead
X1    ablation — cost-model terms                    ablation_cost_terms
X2    ablation — loadd period and Δ                  ablation_loadd
X3    extension — membership churn                   churn
X4    extension — forwarding vs redirection          forwarding
X5    extension — adaptive oracle                    adaptive
X6    extension — disk striping                      striping
X7    extension — centralized dispatcher             centralized
X8    extension — burst/queue dynamics               dynamics
X9    extension — faults & graceful degradation      faults
X10   extension — cooperative cache & replication    cache_coop
X11   extension — scheduler tournament (het zoo)     tournament
X12   extension — adversarial clients vs mitigations adversaries
X13   extension — geo CDN: WAN latency x budget      geo_cdn
====  =============================================  =================
"""

from ..workload import Scenario
from . import (
    ablation_cost_terms,
    ablation_loadd,
    adaptive,
    adversaries,
    analysis_vs_sim,
    cache_coop,
    centralized,
    churn,
    dynamics,
    faults,
    figure1,
    figure2,
    figure3,
    forwarding,
    geo_cdn,
    overhead,
    skewed,
    striping,
    table1,
    table2,
    table3,
    table4,
    table5,
    tournament,
)
from .base import ExperimentReport
from .validate import ValidationError, ValidationReport, validate_result
from .runner import ScenarioResult, find_max_rps, run_scenario
from .shard import (
    CellResult,
    FluidCell,
    ScenarioCell,
    ShardReport,
    grid_fingerprint,
    make_fluid_grid,
    run_cell,
    run_grid,
    scenario_fingerprint,
    scenario_record_lines,
)
from .tables import ComparisonRow, render_comparison, render_table

#: id -> module with a run(fast=True) -> ExperimentReport entry point
ALL_EXPERIMENTS = {
    "T1": table1,
    "T2": table2,
    "T3": table3,
    "T4": table4,
    "T5": table5,
    "F1": figure1,
    "F2": figure2,
    "F3": figure3,
    "S1": analysis_vs_sim,
    "S2": skewed,
    "S3": overhead,
    "X1": ablation_cost_terms,
    "X2": ablation_loadd,
    "X3": churn,
    "X4": forwarding,
    "X5": adaptive,
    "X6": striping,
    "X7": centralized,
    "X8": dynamics,
    "X9": faults,
    "X10": cache_coop,
    "X11": tournament,
    "X12": adversaries,
    "X13": geo_cdn,
}


def run_experiment(exp_id: str, fast: bool = True) -> ExperimentReport:
    """Run one experiment by id (see ALL_EXPERIMENTS)."""
    module = ALL_EXPERIMENTS.get(exp_id.upper())
    if module is None:
        raise KeyError(f"unknown experiment {exp_id!r}; "
                       f"choose from {sorted(ALL_EXPERIMENTS)}")
    return module.run(fast=fast)


__all__ = [
    "ALL_EXPERIMENTS",
    "CellResult",
    "ComparisonRow",
    "ExperimentReport",
    "FluidCell",
    "Scenario",
    "ScenarioCell",
    "ScenarioResult",
    "ShardReport",
    "ValidationError",
    "ValidationReport",
    "find_max_rps",
    "grid_fingerprint",
    "make_fluid_grid",
    "render_comparison",
    "render_table",
    "run_cell",
    "run_experiment",
    "run_grid",
    "run_scenario",
    "scenario_fingerprint",
    "scenario_record_lines",
    "validate_result",
]
