"""§4.3 — server-side overhead of the SWEB machinery.

"Our data shows that in processing requests for files of sizes 1.5MB
when 16 rps, 4.4% of CPU cycles are used for parsing the HTML commands,
but less than 0.01% time is used for collecting load information and
making scheduling decisions.  Approximately 0.2% of the available CPU is
used for load monitoring."

Because every CPU charge in the simulator is tagged with a category,
these shares are direct outputs of the run.  The load-the-paper-reports
hierarchy — parsing ≫ monitoring ≫ scheduling — is the reproduced shape.
"""

from __future__ import annotations

from ..cluster import meiko_cs2
from .base import ExperimentReport
from .paper_data import OVERHEAD
from .runner import run_scenario
from .table1 import table1_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run"]


def run(fast: bool = True) -> ExperimentReport:
    duration = 15.0 if fast else 30.0
    result = run_scenario(table1_scenario(meiko_cs2(6), 1.5e6, 16, duration))

    shares = result.cpu_shares()
    parsing = shares.get("parsing", 0.0)
    scheduling = shares.get("scheduling", 0.0)
    monitoring = shares.get("loadd", 0.0)
    sending = shares.get("send", 0.0)

    rows = [
        ["parsing HTTP commands", OVERHEAD["parsing"].value * 100, parsing * 100],
        ["scheduling decisions", OVERHEAD["scheduling"].value * 100,
         scheduling * 100],
        ["load monitoring (loadd)", OVERHEAD["monitoring"].value * 100,
         monitoring * 100],
        ["packetising / send stack", None, sending * 100],
        ["fork", None, shares.get("fork", 0.0) * 100],
    ]
    table = render_table(
        headers=["activity", "paper (% CPU)", "measured (% CPU)"],
        rows=rows,
        title="§4.3 — server-side CPU shares, 16 rps x 1.5 MB, 6-node Meiko",
        floatfmt=".3f")

    fulfilment = parsing + sending + shares.get("fork", 0.0)
    machinery = scheduling + monitoring
    comparisons = [
        ComparisonRow(
            "parsing >> monitoring",
            "4.4% vs 0.2%",
            f"{parsing:.1%} vs {monitoring:.2%}",
            "at least 5x apart",
            ok=parsing > 5 * monitoring),
        ComparisonRow(
            "SWEB machinery is insignificant",
            "scheduling + monitoring well under 1%",
            f"{machinery:.2%} vs {fulfilment:.0%} spent fulfilling requests",
            "machinery < 2% and < 1/20 of fulfilment",
            ok=machinery < 0.02 and machinery < fulfilment / 20),
        ComparisonRow(
            "load monitoring ~0.2%",
            "0.2%",
            f"{monitoring:.2%}",
            "0.02%-1%",
            ok=0.0002 < monitoring < 0.01),
        ComparisonRow(
            "scheduling direct cost 1-4 ms/request",
            "1-4 ms analysis + 4 ms redirect",
            f"{scheduling:.2%} of CPU at ~2.7 rps/node",
            "consistent with 1-10 ms per request",
            ok=scheduling < 2.7 * 0.010 / 6 * 6),
    ]
    notes = ("§4.3's own numbers disagree internally: '<0.01% for "
             "scheduling decisions' cannot coexist with the 1-4 ms direct "
             "cost per request at 2.7 rps/node (~1% of a 40 MHz CPU), and "
             "the 4.4% parsing share conflicts with Table 5's 70 ms "
             "preprocessing (~19%).  We calibrate to Table 5's per-request "
             "costs; the claim §4.3 actually argues — the SWEB machinery "
             "is a rounding error next to request fulfilment — is "
             "reproduced above.")
    return ExperimentReport(exp_id="S3", title="Server-side overhead (§4.3)",
                            table=table, data={"shares": shares},
                            comparisons=comparisons, notes=notes)
