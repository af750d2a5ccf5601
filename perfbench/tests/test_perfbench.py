"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import hooks  # noqa: E402
from perfbench.harness import (E2E_METRICS, LAYER_METRICS,  # noqa: E402
                               Report, _check_outcome, mid_quantiles,
                               run_traced)
from perfbench.workloads import (WORKLOADS, Outcome,  # noqa: E402
                                 replica_seed)

TINY = 0.05
#: zipf_coop's cold-start storm outlasts a tiny run: at 60 s of arrivals
#: its latency is still climbing, which the backlog check rightly rejects
SCALE = {name: TINY for name in WORKLOADS} | {"zipf_coop": 0.25}


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _digest(name: str, seed: int) -> str:
    workload = WORKLOADS[name]
    return workload.outcome(workload.execute(
        workload.prepare(seed, TINY))).digest


def _repo_root_listing() -> dict[str, float]:
    return {entry: os.stat(os.path.join(ROOT, entry)).st_mtime
            for entry in os.listdir(ROOT)}


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_prints_every_metric_with_its_unit(name):
    before = _repo_root_listing()
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--scale", str(SCALE[name]))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        E2E_METRICS
    text = "\n".join(lines[:-1])
    for metric, unit in E2E_METRICS.items():
        assert any(metric in line and line.rstrip().endswith(unit)
                   for line in lines[:-1]), metric
    assert "completed samples" in text and "warm-up window" in text
    assert result["metrics"]["peak_rss_mb"]["value"] > 10
    assert _repo_root_listing() == before


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_layers_and_removes_its_hooks(name, tmp_path):
    originals = {entry: getattr(
        getattr(__import__(module, fromlist=[cls]), cls), method)
        for entry, (module, cls, method) in hooks.ENTRY_POINTS.items()}
    from repro.sim import Simulator
    run_before = Simulator.run
    spans = tmp_path / "spans.csv.gz"
    report = run_traced(WORKLOADS[name], 3, scale=SCALE[name],
                        spans_path=str(spans))
    assert report.correct, [c for c in report.checks if not c[1]]
    assert {k: unit for k, (_, unit) in report.metrics.items()} == \
        LAYER_METRICS
    shares = [v for k, (v, _) in report.metrics.items()
              if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0)
    assert spans.exists()
    assert sys.getprofile() is None
    assert Simulator.run is run_before
    for entry, (module, cls, method) in hooks.ENTRY_POINTS.items():
        owner = getattr(__import__(module, fromlist=[cls]), cls)
        assert getattr(owner, method) is originals[entry]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_reaches_the_outcome(name):
    first = _digest(name, replica_seed(5, 0))
    assert _digest(name, replica_seed(5, 0)) == first
    assert _digest(name, replica_seed(6, 0)) != first


def test_backlog_check_rejects_an_overloaded_open_loop():
    from repro.workload import FluidScenario, run_fluid

    result = run_fluid(FluidScenario(n_requests=100_000, rate=7_000.0,
                                     seed=1))
    out = WORKLOADS["fluid_zipf"].outcome(result)
    report = Report()
    _check_outcome(report, WORKLOADS["fluid_zipf"], "7000 rps", out, 1.0)
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["7000 rps: no growing backlog"]


def test_conservation_check_catches_a_lost_request():
    import numpy as np

    out = Outcome(offered=2, starts=np.array([0.0, 1.0]),
                  latencies=np.array([0.5, np.nan]),
                  ok=np.array([True, False]), lost=0, digest="", events=0,
                  sim_end=2.0, counted=(1, 0), arrivals=2)
    report = Report()
    _check_outcome(report, WORKLOADS["meiko_bimodal"], "bad", out, 1.0)
    failed = {name for name, ok, _ in report.checks if not ok}
    assert failed == {"bad: every request settled",
                      "bad: completed + failed == offered"}


def test_conservation_check_reads_the_program_counters():
    workload = WORKLOADS["geo3"]
    out = workload.outcome(workload.execute(workload.prepare(1, TINY)))
    assert out.counted[0] + out.counted[1] == out.arrivals
    assert out.counted[0] == out.completed
    out.counted = (out.counted[0] - 1, out.counted[1])
    report = Report()
    _check_outcome(report, workload, "short", out, TINY)
    assert [name for name, ok, _ in report.checks if not ok] == \
        ["short: completed + failed == offered"]


def test_speed_probe_reads_the_reference_job_at_its_own_speed():
    previous = signal.getsignal(signal.SIGALRM)
    jobs = 0
    with hooks.SpeedProbe(period=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            hooks.reference_job()
            jobs += 1
        t1 = time.perf_counter()
    assert len(probe) > 5
    assert probe.net_s(t0, t1) < t1 - t0
    assert probe.scaled_s(t0, t1) == pytest.approx(
        jobs * hooks.REFERENCE_S, rel=0.3)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_mid_quantiles_move_with_mass_around_an_atom():
    import numpy as np

    smooth = np.linspace(0.0, 1.0, 100_001)
    assert mid_quantiles(smooth, (0.5,))[0] == pytest.approx(0.5)
    atom = np.array([1.0] * 40 + [2.0] * 60)
    shifted = np.array([1.0] * 45 + [2.0] * 55)
    assert mid_quantiles(atom, (0.5,)) != mid_quantiles(shifted, (0.5,))


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "geo3", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
