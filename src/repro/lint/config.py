"""Lint configuration: the enforced layer DAG and per-rule allowlists.

The defaults here *are* the repo's contracts (mirrored in
``docs/LINTING.md`` and ``docs/ARCHITECTURE.md``).  Tests construct
custom :class:`LintConfig` instances to exercise rules against fixture
trees without touching the real policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch

__all__ = ["DEFAULT_CONFIG", "LAYERS", "LAYER_ALLOWED", "LintConfig"]

#: The twelve library layers, bottom-up.  Top-level side modules
#: (``cli``, ``config``, ``bench``) and :mod:`repro.lint` itself sit
#: beside the stack and are exempt from the layering rules.
LAYERS: tuple[str, ...] = (
    "obs", "sim", "sched", "cluster", "cache", "faults", "web", "core",
    "workload", "geo", "experiments", "fuzz",
)

#: layer -> the set of *other* layers it may import at runtime.
#: This is the enforced DAG:  obs → sim → sched → cluster → cache →
#: {faults, web} → core → workload → geo → experiments → fuzz.  ``obs``
#: sits at the very bottom (pure data structures, no engine dependency) so *every*
#: layer — including ``sim``, whose stats route percentile math through
#: it — may publish spans and metrics into it.  ``sched`` (the policy
#: registry, speed-factor model and rendezvous hashing) sits just above
#: the kernel so the hardware layer, the per-client strategies and the
#: fluid model all share one scheduling vocabulary.  ``TYPE_CHECKING``-
#: gated imports are exempt (typing-only; they cannot affect runtime
#: behaviour or determinism).
LAYER_ALLOWED: dict[str, frozenset[str]] = {
    "obs": frozenset(),
    "sim": frozenset({"obs"}),
    "sched": frozenset({"obs", "sim"}),
    "cluster": frozenset({"obs", "sim", "sched"}),
    "cache": frozenset({"obs", "sim", "sched", "cluster"}),
    "faults": frozenset({"obs", "sim", "sched", "cluster", "cache"}),
    "web": frozenset({"obs", "sim", "sched", "cluster", "cache"}),
    "core": frozenset({"obs", "sim", "sched", "cluster", "cache", "faults",
                       "web"}),
    "workload": frozenset({"obs", "sim", "sched", "cluster", "cache",
                           "faults", "web", "core"}),
    "geo": frozenset({"obs", "sim", "sched", "cluster", "cache", "faults",
                      "web", "core", "workload"}),
    "experiments": frozenset({"obs", "sim", "sched", "cluster", "cache",
                              "faults", "web", "core", "workload", "geo"}),
    "fuzz": frozenset({"obs", "sim", "sched", "cluster", "cache", "faults",
                       "web", "core", "workload", "geo", "experiments"}),
}

#: Layers whose code is sim-reachable: time must come from the engine
#: clock (``sim.now``) and randomness from ``repro.sim.rng``.
DETERMINISM_LAYERS: tuple[str, ...] = (
    "obs", "sim", "sched", "cluster", "cache", "core", "web", "faults",
    "geo", "fuzz",
)

#: Files allowed to talk to a terminal or the filesystem: the CLI, the
#: benchmark harness, the report generator, helper scripts, and the lint
#: runner itself.
_IO_ALLOWED: tuple[str, ...] = (
    "src/repro/cli.py",
    "src/repro/bench.py",
    "src/repro/experiments/report.py",
    "src/repro/lint/runner.py",
    "scripts/*",
)


@dataclass(frozen=True)
class LintConfig:
    """Which rules apply where; the allowlist half of the policy."""

    #: layer DAG enforced by the ``layer-import`` rule
    layer_allowed: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(LAYER_ALLOWED))
    #: layers subject to the ``det-*`` determinism rules
    determinism_layers: tuple[str, ...] = DETERMINISM_LAYERS
    #: rule name -> repo-relative glob patterns the rule skips entirely
    allow: dict[str, tuple[str, ...]] = field(default_factory=lambda: {
        "io-print": _IO_ALLOWED,
        "io-file-write": _IO_ALLOWED,
        # the one sanctioned randomness source
        "det-foreign-rng": ("src/repro/sim/rng.py",),
        # the event loop owns the heap
        "sched-heapq": ("src/repro/sim/engine.py",),
        "sched-engine-internals": ("src/repro/sim/engine.py",),
        # the kernel package builds and settles its own events
        "sched-event-state": ("src/repro/sim/*",),
    })

    def allows(self, rule: str, relpath: str) -> bool:
        """True if ``relpath`` is allowlisted for ``rule``."""
        return any(fnmatch(relpath, pattern)
                   for pattern in self.allow.get(rule, ()))


DEFAULT_CONFIG = LintConfig()
