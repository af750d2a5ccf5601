"""Scheduling substrate: the policy registry, heterogeneity model, and
deterministic hashing shared by both client-population models.

This layer holds the pieces of the scheduler zoo that are *model-
independent*: the canonical policy registry (:mod:`registry`) that the
per-client strategies (``repro.core.policies``), the fluid decision
kernels (``repro.workload.fluid``), the CLI and the docs gate all
validate against; the per-node :class:`SpeedFactors` heterogeneity
model (:mod:`speed`) applied identically to ``ClusterSpec`` hardware
and to fluid service times; and the rendezvous hash (:mod:`hashring`)
behind the locality-aware ``chash`` policy.  See docs/SCHEDULING.md.

In the enforced layer DAG (docs/ARCHITECTURE.md) ``sched`` sits just
above ``sim``: pure data and pure functions, no hardware or protocol
dependencies, importable by every scheduling consumer above it.
"""

from .hashring import preference_order, rank_preferences, stable_hash64
from .registry import (
    POLICIES,
    PolicyInfo,
    fluid_policy_names,
    policy_names,
)
from .speed import MIXED_GENERATION, SpeedFactors

__all__ = [
    "MIXED_GENERATION",
    "POLICIES",
    "PolicyInfo",
    "SpeedFactors",
    "fluid_policy_names",
    "policy_names",
    "preference_order",
    "rank_preferences",
    "stable_hash64",
]
