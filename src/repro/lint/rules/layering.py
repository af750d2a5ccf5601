"""Layering rules: the import DAG of ``docs/ARCHITECTURE.md``, enforced.

``sim → sched → cluster → cache → {faults, web} → core → workload →
experiments``: each
layer imports only layers strictly below it, and the experiments layer
touches subsystems only through their public ``__init__`` exports, so a
package's module layout can change without breaking every table and
figure.  ``TYPE_CHECKING``-gated imports are exempt — they are typing
only and cannot affect runtime behaviour.  Nor does a layer import
another layer's private (``_name``) definitions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .base import Rule

if TYPE_CHECKING:
    from ..diagnostics import Diagnostic
    from ..engine import FileContext

__all__ = ["RULES"]


def _repro_target(module: str) -> Optional[list[str]]:
    """Split a dotted target into parts if it is inside the repro package."""
    parts = module.split(".")
    return parts if parts[0] == "repro" else None


class LayerImportRule(Rule):
    """Runtime imports must follow the layer DAG."""

    name = "layer-import"
    summary = ("layers import only the layers below them (sim -> sched -> "
               "cluster -> cache -> {faults, web} -> core -> workload -> "
               "experiments)")

    def check(self, ctx: "FileContext") -> Iterator["Diagnostic"]:
        allowed = ctx.config.layer_allowed.get(ctx.layer or "")
        if allowed is None:          # side module / scripts / external file
            return
        for imp in ctx.imports:
            if imp.type_checking:
                continue
            parts = _repro_target(imp.module)
            if parts is None:
                continue
            if len(parts) == 1:
                yield self.diag(ctx, imp.lineno,
                                f"layer '{ctx.layer}' imports the repro "
                                f"package root, which aggregates every layer")
                continue
            target = parts[1]
            if target == ctx.layer or target in allowed:
                continue
            if target in ctx.config.layer_allowed:
                yield self.diag(ctx, imp.lineno,
                                f"layer '{ctx.layer}' must not import "
                                f"'repro.{target}' (allowed: "
                                f"{', '.join(sorted(allowed)) or 'none'})")
            else:
                yield self.diag(ctx, imp.lineno,
                                f"layer '{ctx.layer}' must not import the "
                                f"side module 'repro.{target}'")


class DeepImportRule(Rule):
    """Experiments use public ``__init__`` exports, not submodules."""

    name = "layer-deep-import"
    summary = ("experiments import subsystems via their public __init__ "
               "exports, never from submodules")

    def check(self, ctx: "FileContext") -> Iterator["Diagnostic"]:
        if ctx.layer != "experiments":
            return
        for imp in ctx.imports:
            if imp.type_checking:
                continue
            parts = _repro_target(imp.module)
            if (parts and len(parts) >= 3 and parts[1] != "experiments"
                    and parts[1] in ctx.config.layer_allowed):
                yield self.diag(ctx, imp.lineno,
                                f"deep import of '{imp.module}'; use the "
                                f"public exports of 'repro.{parts[1]}'")


class PrivateImportRule(Rule):
    """No ``_name`` imported from another layer's module."""

    name = "layer-private-import"
    summary = "layers import no private (_name) definition of another layer"

    def check(self, ctx: "FileContext") -> Iterator["Diagnostic"]:
        if ctx.layer not in ctx.config.layer_allowed:
            return
        # By the name imported, not the local one (`x as _x` passes).
        for target in ctx.aliases.values():
            parts = _repro_target(target) or []
            name = parts[-1] if len(parts) > 2 else ""
            if (name.startswith("_") and not name.endswith("__")
                    and parts[1] != ctx.layer):
                module = target.rpartition(".")[0]
                yield self.diag(ctx, next((imp.lineno for imp in ctx.imports
                                           if imp.module == module), 1),
                                f"'{name}' is private to '{module}'")


RULES = (LayerImportRule(), DeepImportRule(), PrivateImportRule())
