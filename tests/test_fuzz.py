"""The fuzz layer: generator, oracle, shrinker, harness, CLI.

Three kinds of evidence:

* the *generator* is a pure function of ``(root_seed, index, profile)``
  and every config survives a JSON round-trip — replay artifacts mean
  something;
* the *oracle* is sound (a known-good seeded campaign is green) and
  complete for each invariant (synthetic corruptions of the outcome
  evidence are caught under the right key);
* a *deliberately injected* invariant break — a shard merge whose
  snapshot comes back unsorted — is caught, shrunk to a minimal config
  that still fails the same way, and replays from its JSON artifact.
"""

import functools
import json
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.experiments import ScenarioCell, run_cell
from repro.fuzz import (
    FUZZ_FORMAT,
    CaseReport,
    FuzzConfig,
    SMOKE_PROFILE,
    case_artifact,
    case_seed,
    check_outcome,
    config_from_artifact,
    config_size,
    failure_key,
    generate_config,
    profile_by_name,
    replay_case,
    run_case,
    run_fuzz,
    shrink,
    shrink_candidates,
)
from repro.fuzz import executor
from repro.fuzz.executor import CaseOutcome


# ------------------------------------------------------------- generator
def test_generator_is_deterministic():
    for index in range(6):
        a = generate_config(7, index)
        b = generate_config(7, index)
        assert a == b
        a.validate()


def test_generator_varies_with_seed_and_index():
    seeds = {generate_config(7, i).seed for i in range(10)}
    assert len(seeds) == 10
    assert generate_config(7, 0) != generate_config(8, 0)
    assert case_seed(7, 0) != case_seed(7, 1) != case_seed(8, 1)


def test_config_json_round_trip():
    # The path `fuzz --out` writes and `fuzz --replay` reads.
    for index in range(8):
        config = generate_config(11, index)
        text = json.dumps(case_artifact(CaseReport(config)))
        assert config_from_artifact(json.loads(text)) == config


def test_profile_by_name():
    assert profile_by_name("smoke") is SMOKE_PROFILE
    assert profile_by_name("full").name == "full"
    with pytest.raises(KeyError):
        profile_by_name("nope")


def test_generator_covers_all_modes_and_extras():
    configs = [generate_config(7, i) for i in range(20)]
    modes = {c.mode for c in configs}
    assert modes == {"scenario", "fluid", "geo"}
    assert any(c.adversary for c in configs)
    assert any(c.faults for c in configs)
    assert any(c.heterogeneous for c in configs)
    geo = [c for c in configs if c.mode == "geo"]
    assert all(1 <= c.geo_sites <= 3 for c in geo)
    assert all(len(c.geo_edge_latencies) == c.geo_sites - 1 for c in geo)
    assert any(c.geo_budget_mb > 0 for c in geo)


# ------------------------------------------------------ oracle soundness
def test_known_good_cases_are_green():
    # one case of each mode through the real executor: the oracle must
    # hold on healthy runs (c0000 is scenario-mode, c0001 fluid-mode,
    # c0012 geo-mode)
    for index in (0, 1, 12):
        config = generate_config(7, index)
        assert check_outcome(run_case(config)) == ()


def _outcome(config, **changes):
    base = CaseOutcome(
        config=config, fingerprints=("f", "f"), offered=10, settled=10,
        completed=10, dropped=0, finished_at=1.0)
    return replace(base, **changes)


def _scenario_config():
    return FuzzConfig(case_id="t", mode="scenario", seed=1, nodes=2,
                      policy="sweb", rps=1, duration=2.0, n_files=8,
                      file_bytes=1e5)


def test_shard_cell_and_fuzz_case_share_one_fingerprint():
    """The shard runner and the fuzz executor digest a per-client run
    with the one ``scenario_fingerprint``."""
    config = _scenario_config()
    cell = ScenarioCell("fuzz-t", factory=functools.partial(
        executor.build_scenario, config))
    assert run_cell(cell).fingerprint == run_case(config).fingerprints[0]


def _fluid_config():
    return FuzzConfig(case_id="t", mode="fluid", seed=1, nodes=2,
                      policy="sweb", rate=400.0, n_requests=1000)


@pytest.mark.parametrize("changes,invariant", [
    ({"fingerprints": ("a", "b")}, "determinism"),
    ({"grid_fingerprints": ("x", "y")}, "shard-merge"),
    ({"merged_snapshots": ('{"a":1}', '{"a":2}')}, "shard-merge"),
    ({"settled": 9, "completed": 9}, "starvation"),
    ({"dropped": 3}, "conservation"),
    ({"trace_failures": ("req 3: stage mismatch",)}, "trace"),
])
def test_oracle_catches_each_synthetic_corruption(changes, invariant):
    violations = check_outcome(_outcome(_scenario_config(), **changes))
    assert violations
    assert failure_key(violations) == invariant


def test_oracle_checks_cache_byte_accounting():
    bad = {"node": 0.0, "used_bytes": 9e9, "capacity_bytes": 1e6,
           "entry_bytes": 1.0, "hits": -1.0, "misses": 0.0,
           "evictions": 0.0}
    violations = check_outcome(_outcome(_scenario_config(), caches=(bad,)))
    details = "\n".join(str(v) for v in violations)
    assert failure_key(violations) == "cache-bytes"
    assert "capacity" in details and "negative hits" in details


def test_oracle_fluid_conservation():
    violations = check_outcome(
        _outcome(_fluid_config(), completed=9, settled=10, offered=10))
    assert failure_key(violations) == "conservation"


# ------------------------------------------------------- shrinker algebra
def test_candidates_strictly_shrink_the_size_measure():
    for index in range(12):
        config = generate_config(3, index)
        for candidate in shrink_candidates(config):
            assert config_size(candidate) < config_size(config)


def test_shrink_requires_a_failing_config():
    with pytest.raises(ValueError):
        shrink(generate_config(7, 0), lambda c: None)


_idx = st.integers(min_value=0, max_value=60)
_root = st.integers(min_value=0, max_value=40)


@given(_root, _idx)
@settings(max_examples=60, deadline=None)
def test_shrink_is_idempotent_and_preserves_key(root_seed, index):
    config = generate_config(root_seed, index)

    def probe(c):
        return "starvation"  # every config "fails" the same way

    small, key = shrink(config, probe)
    assert key == "starvation" and probe(small) == key
    again, _ = shrink(small, probe, key=key)
    assert again == small  # idempotent: a minimum cannot shrink further
    assert config_size(small) <= config_size(config)
    small.validate()


@given(_root, _idx)
@settings(max_examples=40, deadline=None)
def test_shrink_keeps_the_failure_inducing_feature(root_seed, index):
    config = generate_config(root_seed, index)

    def probe(c):
        return "trace" if c.faults else None

    if not config.faults:
        with pytest.raises(ValueError):
            shrink(config, probe)
        return
    small, key = shrink(config, probe)
    assert small.faults, "shrinking must not lose the failing feature"
    assert probe(small) == key == "trace"
    # minimal: no valid candidate still fails
    for candidate in shrink_candidates(small):
        try:
            candidate.validate()
        except ValueError:
            continue
        assert probe(candidate) != key


# ------------------------------- the injected break, end to end (tentpole)
_real_run_case = executor.run_case


def _unsorted_merge_runner(config):
    """A runner whose 2-worker shard merge comes back unsorted."""
    outcome = _real_run_case(config)
    if config.mode != "fluid":
        return outcome
    serial, pooled = outcome.merged_snapshots
    scrambled = json.dumps(json.loads(pooled), sort_keys=False,
                           separators=(";", "="))
    return replace(outcome, merged_snapshots=(serial, scrambled))


def test_injected_merge_break_is_caught_shrunk_and_replayable(tmp_path):
    report = run_fuzz(root_seed=7, n_cases=2,
                      runner=_unsorted_merge_runner)
    assert not report.ok
    [failure] = report.failures
    assert failure.config.mode == "fluid"
    assert failure.key == "shard-merge"
    assert "FAIL shard-merge" in failure.summary_line()

    # shrunk: still failing the same invariant, and locally minimal
    shrunk = failure.shrunk
    assert shrunk is not None
    assert config_size(shrunk) <= config_size(failure.config)
    probe = lambda c: failure_key(check_outcome(_unsorted_merge_runner(c)))
    assert probe(shrunk) == "shard-merge"
    for candidate in shrink_candidates(shrunk):
        try:
            candidate.validate()
        except ValueError:
            continue
        assert probe(candidate) != "shard-merge"

    # the artifact round-trips and replays to the same verdict
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case_artifact(failure)))
    data = json.loads(path.read_text())
    assert data["format"] == FUZZ_FORMAT
    assert data["invariant"] == "shard-merge"
    loaded = config_from_artifact(data)
    assert loaded == shrunk
    bad = replay_case(loaded, runner=_unsorted_merge_runner)
    assert not bad.ok and bad.key == "shard-merge"
    # ...and the same case is green under the real executor: the bug was
    # in the (injected) merge, not the config
    assert replay_case(loaded).ok


# --------------------------------------------------- tier-1 smoke campaign
def test_smoke_campaign_is_green_and_fast():
    started = time.perf_counter()
    report = run_fuzz(root_seed=7, n_cases=20)
    wall = time.perf_counter() - started
    assert report.n_cases == 20
    assert report.ok, "\n".join(report.summary_lines())
    assert report.summary_lines()[-1].endswith("20/20 cases green")
    assert wall < 60.0


# ----------------------------------------------------------------- CLI
def test_cli_fuzz_smoke(capsys):
    assert cli_main(["fuzz", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "20/20 cases green" in out


def test_cli_fuzz_failure_writes_artifact_and_replays(tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(executor, "run_case", _unsorted_merge_runner)
    artifact = tmp_path / "bad.json"
    rc = cli_main(["fuzz", "--seed", "7", "--cases", "2",
                   "-o", str(artifact)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL shard-merge" in out
    assert artifact.exists()
    # replay under the still-broken executor reproduces the failure...
    assert cli_main(["fuzz", "--replay", str(artifact)]) == 1
    assert "shard-merge" in capsys.readouterr().out
    monkeypatch.undo()
    # ...and the shipped executor shows the config itself is healthy
    assert cli_main(["fuzz", "--replay", str(artifact)]) == 0
