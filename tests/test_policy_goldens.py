"""Bit-for-bit pins of every scheduling policy on both client models.

Two goldens, each recorded before the policy code was last restructured:

* ``tests/data/client_policy_goldens.json`` — every per-client policy
  (``repro.sched.policy_names()``) on the full httpd stack, once on a
  homogeneous 6-node Meiko and once on the tournament's mixed-generation
  confirmation cell (:func:`repro.experiments.tournament.client_scenario`).
  Each entry is the sha256 of the record lines, counters and finish time
  (the digest ``repro.fuzz`` compares runs by) plus the redirect count.
* ``tests/data/fluid_batch_goldens.json`` — every fluid policy on the
  homogeneous and the mixed-generation tournament cell cut into 7-request
  batches, so the DNS cursor and the policy state carried from batch to
  batch (queues, sample streams) are pinned, not just one batch's loop.

If a change legitimately alters a policy's behaviour, regenerate both::

    PYTHONPATH=src python tests/test_policy_goldens.py --regenerate

and explain the behaviour change in the commit message.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import meiko_cs2
from repro.experiments.runner import run_scenario
from repro.experiments.shard import scenario_record_lines
from repro.experiments.tournament import client_scenario, fluid_cell
from repro.sched import fluid_policy_names, policy_names
from repro.workload import run_fluid

DATA = Path(__file__).resolve().parent / "data"
CLIENT_GOLDEN = DATA / "client_policy_goldens.json"
FLUID_GOLDEN = DATA / "fluid_batch_goldens.json"

#: policies that read cluster load, so a 10-rps burst must move requests
LOAD_AWARE = ("sweb", "cpu-only", "jsq", "po2", "lwl", "chash")


def _client_cell(policy: str, cluster: str):
    scenario = client_scenario(policy)
    if cluster == "hom":
        scenario = replace(scenario, spec=meiko_cs2(6))
    return scenario


def client_entry(policy: str, cluster: str) -> dict:
    result = run_scenario(_client_cell(policy, cluster))
    digest = hashlib.sha256()
    for line in scenario_record_lines(result):
        digest.update(line.encode())
        digest.update(b"\n")
    counters = result.metrics.counters
    digest.update(repr(sorted(counters.as_dict().items())).encode())
    digest.update(repr(result.finished_at).encode())
    return {"fingerprint": digest.hexdigest(),
            "redirected": counters["redirected"]}


def fluid_entry(policy: str, cluster: str) -> dict:
    cell = fluid_cell(policy, cluster, "zipf", n_requests=5_000)
    result = run_fluid(replace(cell.scenario, batch=7), keep_records=False)
    return {"fingerprint": result.fingerprint,
            "served": result.served,
            "redirected": result.redirected,
            "finished_at": result.finished_at.hex()}


def _client_ids():
    return [f"{p}/{c}" for p in policy_names() for c in ("hom", "mix")]


def _fluid_ids():
    return [f"{p}/{c}" for p in fluid_policy_names() for c in ("hom", "het")]


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_goldens_cover_every_policy():
    assert sorted(_load(CLIENT_GOLDEN)) == sorted(_client_ids())
    assert sorted(_load(FLUID_GOLDEN)) == sorted(_fluid_ids())


@pytest.mark.parametrize("cell_id", _client_ids())
def test_client_policy_is_pinned(cell_id):
    policy, cluster = cell_id.split("/")
    entry = client_entry(policy, cluster)
    assert entry == _load(CLIENT_GOLDEN)[cell_id]
    if policy in LOAD_AWARE:
        assert entry["redirected"] > 0
    if policy == "round-robin":
        assert entry["redirected"] == 0


@pytest.mark.parametrize("cell_id", _fluid_ids())
def test_fluid_policy_is_pinned_across_batches(cell_id):
    policy, cluster = cell_id.split("/")
    entry = fluid_entry(policy, cluster)
    assert entry == _load(FLUID_GOLDEN)[cell_id]
    if policy != "round-robin":
        assert entry["redirected"] > 0


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        DATA.mkdir(parents=True, exist_ok=True)
        for path, ids, entry in ((CLIENT_GOLDEN, _client_ids(), client_entry),
                                 (FLUID_GOLDEN, _fluid_ids(), fluid_entry)):
            golden = {i: entry(*i.split("/")) for i in ids}
            path.write_text(json.dumps(golden, indent=1, sort_keys=True)
                            + "\n")
            print(f"wrote {path}")
    else:
        print(__doc__)
