"""Tests for the --scale bench tiers (docs/SCALING.md).

Covers ``parse_scale`` (float vs tier-letter forms), the tier phase
registry, and a miniature tier run through ``run_bench`` — scaled down
by the float multiplier so the test finishes in milliseconds while
still exercising the exact code path ``sweb-repro bench --scale L``
takes.  Also checks that ``python -m repro.bench`` parses its arguments
like ``sweb-repro bench``.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    PHASES,
    TIER_PHASES,
    TIERS,
    parse_scale,
    run_bench,
    run_phase,
)


def test_parse_scale_accepts_floats_and_tiers():
    assert parse_scale(1.0) == (1.0, None)
    assert parse_scale("0.25") == (0.25, None)
    assert parse_scale(2) == (2.0, None)
    assert parse_scale("L") == (1.0, "L")
    assert parse_scale("xl") == (1.0, "XL")
    assert parse_scale(" m ") == (1.0, "M")
    with pytest.raises(ValueError, match="S/M/L/XL"):
        parse_scale("huge")


def test_tier_registry_shape():
    assert set(TIERS) == {"S", "M", "L", "XL"}
    for tier, cfg in TIERS.items():
        assert f"fluid_stream@{tier}" in TIER_PHASES
        assert f"shard_grid@{tier}" in TIER_PHASES
        # the L tier is the acceptance bar: >= 1M simulated requests
        assert cfg["fluid_requests"] >= 100_000
        assert cfg["grid_cells"] * cfg["grid_requests"] \
            == cfg["fluid_requests"]
    assert TIERS["L"]["fluid_requests"] >= 1_000_000
    assert not set(TIER_PHASES) & set(PHASES)


def test_tier_phases_record_sim_req_and_events_rates():
    result = run_phase("fluid_stream@S", repeats=1, scale=0.02)
    assert result["unit"] == "sim-req"
    assert result["units"] == int(TIERS["S"]["fluid_requests"] * 0.02)
    assert result["per_s"] > 0
    assert result["events_per_s"] > 0
    assert result["tier"] == "S"
    assert len(result["fingerprint"]) == 16

    grid = run_phase("shard_grid@S", repeats=1, scale=0.02)
    assert grid["unit"] == "sim-req"
    assert grid["cells"] == TIERS["S"]["grid_cells"]
    assert grid["units"] == grid["cells"] * int(
        TIERS["S"]["grid_requests"] * 0.02)
    assert len(grid["grid_fingerprint"]) == 16


def test_run_bench_tier_appends_tier_phases():
    out = io.StringIO()
    doc = run_bench(repeats=1, scale=0.01, tier="S",
                    phases=None, stream=out)
    assert doc["tier"] == "S"
    assert "fluid_stream@S" in doc["phases"]
    assert "shard_grid@S" in doc["phases"]
    assert set(PHASES) <= set(doc["phases"])
    assert "fluid_stream@S" in out.getvalue()
    with pytest.raises(KeyError, match="unknown tier"):
        run_bench(repeats=1, tier="Q", stream=io.StringIO())


def test_run_bench_without_tier_skips_tier_phases():
    out = io.StringIO()
    doc = run_bench(repeats=1, scale=0.01, stream=out,
                    phases=["timeout_chain"])
    assert "tier" not in doc
    assert set(doc["phases"]) == {"timeout_chain"}
    # tier phases remain addressable by explicit --phase
    doc = run_bench(repeats=1, scale=0.01, stream=io.StringIO(),
                    phases=["fluid_stream@S"])
    assert set(doc["phases"]) == {"fluid_stream@S"}


def test_module_entry_point_routes_through_the_cli_parser(tmp_path):
    # `python -m repro.bench` must honour --phase/--scale/--repeats/-o like
    # `sweb-repro bench`, and write nothing into the working directory.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = tmp_path / "out" / "bench.json"
    out.parent.mkdir()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--phase", "fair_share",
         "--scale", "0.05", "--repeats", "1", "-o", str(out)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc["phases"]) == {"fair_share"}
    assert list(cwd.iterdir()) == []
    bad = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--scale", "Q"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert bad.returncode == 2 and "sweb-repro bench" in bad.stderr
    assert list(cwd.iterdir()) == []


def test_default_output_never_drops_recorded_phases(tmp_path):
    # Without -o the run updates BENCH_kernel.json in the working directory
    # only when it measured every phase already recorded there; -o always
    # writes where it is told.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    ledger = tmp_path / "BENCH_kernel.json"

    def bench(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro.bench", "--scale", "0.02",
             "--repeats", "1", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)

    proc = bench("--phase", "timeout_chain", "--phase", "fair_share")
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(ledger.read_text())["phases"]) == {
        "timeout_chain", "fair_share"}
    recorded = ledger.read_text()

    partial = bench("--phase", "fair_share")
    assert partial.returncode == 0, partial.stderr
    assert "timeout_chain" in partial.stderr
    assert "not writing BENCH_kernel.json" in partial.stderr
    assert ledger.read_text() == recorded

    explicit = bench("--phase", "fair_share", "-o", str(ledger))
    assert explicit.returncode == 0, explicit.stderr
    assert set(json.loads(ledger.read_text())["phases"]) == {"fair_share"}

    superset = bench("--phase", "fair_share", "--phase", "trace_disabled")
    assert superset.returncode == 0, superset.stderr
    assert set(json.loads(ledger.read_text())["phases"]) == {
        "fair_share", "trace_disabled"}
