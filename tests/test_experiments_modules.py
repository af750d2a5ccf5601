"""Tests for the experiment modules (fast, scaled-down runs).

T1 and S1 run max-rps searches that take ~a minute even in fast mode;
they are exercised through their building blocks here and in full by the
benchmark harness.

Every fast-mode render is pinned verbatim in
``tests/data/artifact_goldens.json``.  If a change legitimately alters an
artifact, regenerate the file::

    PYTHONPATH=src python tests/test_experiments_modules.py --regenerate

and explain the change in the commit message.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cluster import meiko_cs2
from repro.experiments import (
    ALL_EXPERIMENTS,
    run_experiment,
)
from repro.experiments.base import ExperimentReport
from repro.experiments.table1 import max_rps_cell
from repro.experiments.tables import ComparisonRow, render_comparison, render_table
from repro.experiments import paper_data

ARTIFACT_GOLDEN = Path(__file__).resolve().parent / "data" / "artifact_goldens.json"


# --------------------------------------------------------------- registry
def test_registry_is_complete():
    assert set(ALL_EXPERIMENTS) == {
        "T1", "T2", "T3", "T4", "T5", "F1", "F2", "F3",
        "S1", "S2", "S3",
        "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10",
        "X11", "X12", "X13",
    }
    for module in ALL_EXPERIMENTS.values():
        assert callable(module.run)


def test_run_experiment_unknown_id():
    with pytest.raises(KeyError):
        run_experiment("T9")


def test_run_experiment_case_insensitive():
    report = run_experiment("f1")
    assert report.exp_id == "F1"


# --------------------------------------------------------- fast experiments
FAST_IDS = ("T2", "T3", "T4", "T5", "F1", "F2", "F3", "S2", "S3",
            "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10",
            "X11", "X12", "X13")


def test_artifact_goldens_cover_every_fast_id():
    assert sorted(json.loads(ARTIFACT_GOLDEN.read_text())) == sorted(FAST_IDS)


@pytest.mark.parametrize("exp_id", FAST_IDS)
def test_experiment_report_structure_and_shape(exp_id):
    report = run_experiment(exp_id, fast=True)
    assert isinstance(report, ExperimentReport)
    assert report.exp_id == exp_id
    assert report.table.strip()
    assert report.comparisons
    rendered = report.render()
    assert exp_id in rendered
    assert "paper vs measured" in rendered
    assert report.shape_holds, rendered
    assert rendered == json.loads(ARTIFACT_GOLDEN.read_text())[exp_id]


# ----------------------------------------------------- T1/S1 building block
def test_max_rps_cell_finds_positive_knee():
    best = max_rps_cell(meiko_cs2(2), 1.5e6, duration=8.0, cap=16)
    assert 1 <= best <= 16


# ---------------------------------------------------------------- rendering
def test_render_table_alignment_and_nan():
    text = render_table(["a", "bb"], [[1, 2.5], [float("nan"), None]],
                        title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert "2.50" in text
    assert "-" in lines[-1]


def test_render_comparison_verdicts():
    rows = [ComparisonRow("x", 1, 2, "check", ok=True),
            ComparisonRow("y", 1, 2, "check", ok=False),
            ComparisonRow("z", 1, 2, "check", ok=None)]
    text = render_comparison(rows)
    assert "yes" in text and "NO" in text


def test_experiment_report_shape_holds_logic():
    report = ExperimentReport(exp_id="Z", title="t", table="x",
                              comparisons=[ComparisonRow("a", 1, 1, "", ok=True),
                                           ComparisonRow("b", 1, 1, "", ok=None)])
    assert report.shape_holds
    report.comparisons.append(ComparisonRow("c", 1, 1, "", ok=False))
    assert not report.shape_holds


# --------------------------------------------------------------- paper data
def test_paper_data_quality_flags():
    for value in (paper_data.TABLE5["preprocessing"],
                  paper_data.SKEWED_TEST["round-robin"],
                  paper_data.OVERHEAD["parsing"]):
        assert value.quality in ("exact", "approx", "garbled")
        assert value.value > 0


def test_paper_analysis_constants():
    assert paper_data.ANALYSIS["p"] == 6
    assert paper_data.ANALYSIS["total_rps_s33"].value == pytest.approx(17.3)


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        golden = {exp_id: run_experiment(exp_id, fast=True).render()
                  for exp_id in FAST_IDS}
        ARTIFACT_GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                                   + "\n")
        print(f"wrote {ARTIFACT_GOLDEN}")
    else:
        print(__doc__)
