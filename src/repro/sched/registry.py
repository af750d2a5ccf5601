"""The scheduling-policy registry: one source of truth for the zoo.

Every redirection policy the reproduction knows — the paper's SWEB cost
model, its §4.2 baselines, and the modern cluster-scheduling zoo added
for the heterogeneous tournament (docs/SCHEDULING.md) — is declared
here once, with the metadata every consumer needs:

* the per-client simulator (``repro.core.policies``) implements every
  name as a strategy object;
* the fluid client-population model (``repro.workload.fluid``) runs the
  array-backed analogue for names with ``fluid=True``;
* the CLI (``sweb-repro serve --scheduler``) and the docs gate
  (``scripts/check_docs.py``) validate user- and doc-supplied names
  against :func:`policy_names`, so a documented ``--scheduler`` value
  can never silently drift from the implemented zoo.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PolicyInfo", "POLICIES", "fluid_policy_names", "policy_names"]


@dataclass(frozen=True)
class PolicyInfo:
    """What one scheduling policy is and where it runs."""

    name: str
    #: one-line decision rule (rendered by docs and ``--list`` surfaces)
    summary: str
    #: the cluster state the decision reads ("none", "loadd view", ...)
    reads: str
    #: per-decision complexity in the number of candidate nodes n
    complexity: str
    #: implemented as a fluid-model decision kernel (repro.workload.fluid)
    fluid: bool = False


#: name -> metadata, in canonical (documentation) order.
POLICIES: dict[str, PolicyInfo] = {p.name: p for p in (
    PolicyInfo(
        name="sweb",
        summary=("argmin over the multi-faceted completion-time estimate "
                 "t_s = t_redirection + t_data + t_CPU + t_net (§3.2)"),
        reads="loadd view + oracle + file placement (+ cache directory)",
        complexity="O(n)",
        fluid=True),
    PolicyInfo(
        name="round-robin",
        summary="serve wherever DNS rotation landed the request (NCSA)",
        reads="none",
        complexity="O(1)",
        fluid=True),
    PolicyInfo(
        name="file-locality",
        summary="always move the request to the node owning the file",
        reads="file placement",
        complexity="O(1)"),
    PolicyInfo(
        name="cpu-only",
        summary="argmin of speed-normalised believed CPU load ([SHK95])",
        reads="loadd view (CPU only)",
        complexity="O(n)"),
    PolicyInfo(
        name="random",
        summary="uniform random placement over the available nodes",
        reads="membership only",
        complexity="O(1)",
        fluid=True),
    PolicyInfo(
        name="jsq",
        summary="join the shortest queue: argmin of in-service job count",
        reads="queue lengths (believed run-queue per node)",
        complexity="O(n)",
        fluid=True),
    PolicyInfo(
        name="po2",
        summary=("power of two choices: sample two nodes uniformly, "
                 "join the shorter queue"),
        reads="queue lengths of the two sampled nodes",
        complexity="O(1)",
        fluid=True),
    PolicyInfo(
        name="lwl",
        summary=("least work left: argmin of outstanding *work* in "
                 "seconds, so fast nodes absorb proportionally more"),
        reads="backlog work (speed-normalised load per node)",
        complexity="O(n)",
        fluid=True),
    PolicyInfo(
        name="chash",
        summary=("locality-aware consistent hashing: rendezvous-hash the "
                 "path to a node, spill down the preference order when "
                 "the owner exceeds the bounded-load threshold"),
        reads="stable hash of the path + backlog for the load bound",
        complexity="O(n log n) ranking, O(n) spill walk",
        fluid=True),
)}


def policy_names() -> tuple[str, ...]:
    """Every registered policy name, in canonical order."""
    return tuple(POLICIES)


def fluid_policy_names() -> tuple[str, ...]:
    """Names runnable on the fluid path (``repro.workload.fluid``)."""
    return tuple(n for n, p in POLICIES.items() if p.fluid)
