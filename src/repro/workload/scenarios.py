"""Scenario descriptions.

:class:`Scenario` is "everything needed to reproduce one experimental
cell": cluster spec, corpus, workload, policy, seed, knobs.  The
experiment harness (:mod:`repro.experiments.runner`) consumes these;
defining them here keeps the layering acyclic (workload sits below
experiments, so scenario *descriptions* must not reach upward).  Each
paper cell has one builder, in the experiment module that owns it
(``repro.experiments.table1.table1_scenario`` and its siblings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..cluster import ClusterSpec
from ..core import CostParameters, SchedulingPolicy
from ..faults import FaultPlan
from ..obs import Tracer
from ..web import ClientProfile, RUTGERS_CLIENT, UCSB_CLIENT
from .corpus import Corpus
from .generators import Workload

__all__ = ["DEFAULT_PROFILES", "Scenario"]

#: Default client populations, keyed by the Arrival.client field.
DEFAULT_PROFILES: dict[str, ClientProfile] = {
    "ucsb": UCSB_CLIENT,
    "rutgers": RUTGERS_CLIENT,
}


@dataclass
class Scenario:
    """Everything needed to reproduce one experimental cell."""

    name: str
    spec: ClusterSpec
    corpus: Corpus
    workload: Workload
    policy: Union[str, SchedulingPolicy] = "sweb"
    seed: int = 0
    backlog: int = 64
    client_timeout: float = 120.0
    dns_ttl: float = 0.0
    #: number of distinct client hosts per profile.  With ``dns_ttl`` > 0
    #: each host's resolver pins it to one server node for the TTL — the
    #: coarse, load-oblivious DNS assignment the paper says "cannot
    #: predict those changes".  1 host + ttl 0 = idealised per-request
    #: rotation.
    hosts_per_profile: int = 1
    #: route every request through one node's scheduler (the centralized
    #: design §3.1 rejected); None = distributed (DNS rotation)
    dispatcher: Optional[int] = None
    params: Optional[CostParameters] = None
    #: scheduled faults injected into the run (None = healthy cluster);
    #: either a FaultPlan or a CLI spec string like "crash:n2@30,partition:10-20"
    faults: Optional[Union[str, FaultPlan]] = None
    profiles: dict[str, ClientProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES))
    #: spans and event log (repro.obs); None = tracing off.  Purely
    #: observational — attaching one never changes simulation results
    #: (pinned against the determinism golden).
    tracer: Optional[Tracer] = None
