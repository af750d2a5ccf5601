"""SWEB's contribution: the multi-faceted distributed scheduler.

The pieces map one-to-one onto Figure 3 of the paper:

* :class:`Broker` — "determines the best possible processor to handle a
  given request" via the §3.2 cost model (:class:`CostModel`);
* :class:`Oracle` — the user-supplied request-characterisation table;
* :class:`LoadDaemon` — periodic CPU/disk/network load broadcasts and
  availability tracking (:class:`ClusterView`, :class:`LoadSnapshot`);
* the scheduling :mod:`policies <repro.core.policies>` compared in §4.2;
* :mod:`analysis <repro.core.analysis>` — the §3.3 closed-form rps bound;
* :class:`SWEBCluster` — the facade that wires a whole logical server.
"""

from .analysis import (
    AnalysisInputs,
    max_sustained_rps,
    paper_example,
    service_demand,
)
from .adaptive_oracle import AdaptiveOracle, ClassStats
from .broker import Broker, BrokerDecision
from .costmodel import CostEstimate, CostModel, CostParameters
from .loadd import LoadDaemon
from .loadinfo import ClusterView, LoadSnapshot
from .oracle import Oracle, OracleRule, TaskEstimate
from .policies import (
    ConsistentHashPolicy,
    CPUOnlyPolicy,
    FileLocalityPolicy,
    JoinShortestQueuePolicy,
    LeastWorkLeftPolicy,
    POLICY_NAMES,
    PowerOfTwoPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
    SWEBPolicy,
    make_policy,
)
from .sweb import SWEBCluster

__all__ = [
    "AdaptiveOracle",
    "AnalysisInputs",
    "Broker",
    "BrokerDecision",
    "ClassStats",
    "CPUOnlyPolicy",
    "ClusterView",
    "ConsistentHashPolicy",
    "CostEstimate",
    "CostModel",
    "CostParameters",
    "FileLocalityPolicy",
    "JoinShortestQueuePolicy",
    "LeastWorkLeftPolicy",
    "LoadDaemon",
    "LoadSnapshot",
    "Oracle",
    "OracleRule",
    "POLICY_NAMES",
    "PowerOfTwoPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "SWEBCluster",
    "SWEBPolicy",
    "SchedulingPolicy",
    "TaskEstimate",
    "make_policy",
    "max_sustained_rps",
    "paper_example",
    "service_demand",
]
