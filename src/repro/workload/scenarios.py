"""Scenario descriptions and named, canonical scenario configurations.

Two things live here:

* :class:`Scenario` — "everything needed to reproduce one experimental
  cell": cluster spec, corpus, workload, policy, seed, knobs.  The
  experiment harness (:mod:`repro.experiments.runner`) consumes these;
  defining them here keeps the layering acyclic (workload sits below
  experiments, so scenario *descriptions* must not reach upward).
* the named presets — one place that encodes "the Table 3 cell at
  25 rps under SWEB" and friends, so the CLI, the tests and downstream
  users can reproduce the paper's exact setups without copying
  parameter lists around::

    from repro.workload.scenarios import build_scenario, SCENARIOS

    result = run_scenario(build_scenario("table3", rps=25, policy="sweb"))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..cluster import ClusterSpec, meiko_cs2, sun_now
from ..core import CostParameters, SchedulingPolicy
from ..faults import FaultPlan
from ..obs import Tracer
from ..sim import RandomStreams
from ..web import ClientProfile, RUTGERS_CLIENT, UCSB_CLIENT
from .corpus import (
    Corpus,
    bimodal_corpus,
    single_hot_file,
    uniform_corpus,
)
from .generators import (
    Workload,
    burst_workload,
    hot_file_sampler,
    uniform_sampler,
)

__all__ = ["DEFAULT_PROFILES", "SCENARIOS", "Scenario", "build_scenario",
           "scenario_names"]

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


def _table1(rps: int = 16, policy: str = "sweb", duration: float = 30.0,
            file_size: float = 1.5e6, nodes: int = 6,
            seed: int = 1) -> Scenario:
    spec = meiko_cs2(nodes)
    corpus = uniform_corpus(120, file_size, nodes)
    workload = burst_workload(rps, duration,
                              uniform_sampler(corpus, RandomStreams(42)))
    return Scenario(name=f"table1-{rps}rps", spec=spec, corpus=corpus,
                    workload=workload, policy=policy, seed=seed)


def _table3(rps: int = 25, policy: str = "sweb", duration: float = 30.0,
            nodes: int = 6, seed: int = 1) -> Scenario:
    corpus = bimodal_corpus(150, nodes, large_frac=0.5, seed=9)
    workload = burst_workload(rps, duration,
                              uniform_sampler(corpus, RandomStreams(42)))
    return Scenario(name=f"table3-{policy}-{rps}rps", spec=meiko_cs2(nodes),
                    corpus=corpus, workload=workload, policy=policy,
                    seed=seed, dns_ttl=300.0, hosts_per_profile=4)


def _table4(rps: int = 2, policy: str = "sweb", duration: float = 30.0,
            nodes: int = 4, seed: int = 1) -> Scenario:
    corpus = uniform_corpus(40, 1.5e6, nodes)
    workload = burst_workload(rps, duration,
                              uniform_sampler(corpus, RandomStreams(42)))
    return Scenario(name=f"table4-{policy}-{rps}rps", spec=sun_now(nodes),
                    corpus=corpus, workload=workload, policy=policy,
                    seed=seed, client_timeout=300.0)


def _skewed(rps: int = 8, policy: str = "round-robin",
            duration: float = 45.0, nodes: int = 6, seed: int = 1) -> Scenario:
    corpus = single_hot_file(1.5e6, home=0)
    workload = burst_workload(rps, duration,
                              hot_file_sampler("/hot/popular.gif"))
    return Scenario(name=f"skewed-{policy}", spec=meiko_cs2(nodes),
                    corpus=corpus, workload=workload, policy=policy,
                    seed=seed, client_timeout=600.0, backlog=1024)


#: name -> factory(**overrides) -> Scenario
SCENARIOS: dict[str, Callable] = {
    "table1": _table1,
    "table3": _table3,
    "table4": _table4,
    "skewed": _skewed,
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def build_scenario(name: str, **overrides) -> Scenario:
    """Build a named scenario, overriding rps/policy/duration/nodes/seed."""
    factory = SCENARIOS.get(name)
    if factory is None:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"choose from {scenario_names()}")
    return factory(**overrides)
