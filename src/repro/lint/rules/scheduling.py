"""Scheduling-misuse rules: only the engine touches the event heap.

The PR-2 performance pass inlined the run loop and exposed how easy it
is to "help" the scheduler from outside — pushing onto the simulator's
queue directly, or re-sorting it with ``heapq`` — which silently breaks
the ``(time, priority, seq)`` determinism contract.  Everything must go
through the public ``Simulator`` API (``spawn``/``timeout``/``defer``/
``schedule``), and an event's outcome is set only by the kernel (its
triggers, or ``Timeout(sim)`` for an event built triggered).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .base import Rule

if TYPE_CHECKING:
    from ..diagnostics import Diagnostic
    from ..engine import FileContext

__all__ = ["RULES"]

#: private engine attributes nothing outside sim/engine.py may touch: the
#: heap of future entries and the same-instant lanes
_ENGINE_INTERNALS = frozenset({"_queue", "_heap", "_urgent", "_normal"})

#: an event's private outcome fields, set only by the kernel's triggers
_EVENT_STATE = frozenset({"_ok", "_state", "_value"})


class HeapqRule(Rule):
    """No direct ``heapq`` use outside the engine."""

    name = "sched-heapq"
    summary = "no heapq import/use outside sim/engine.py"

    def check(self, ctx: "FileContext") -> Iterator["Diagnostic"]:
        if ctx.layer is None:
            return
        for imp in ctx.imports:
            if imp.module == "heapq":
                yield self.diag(ctx, imp.lineno,
                                "imports heapq; event ordering belongs to "
                                "sim/engine.py (use Simulator.spawn/timeout/"
                                "defer/schedule)")
        for node, dotted in ctx.calls():
            if dotted and dotted.startswith("heapq."):
                yield self.diag(ctx, node.lineno,
                                f"{dotted}() manipulates a heap directly; "
                                f"only sim/engine.py owns event ordering")


class EngineInternalsRule(Rule):
    """No reaching into the simulator's private event queue, and no
    writing its clock."""

    name = "sched-engine-internals"
    summary = ("no access to the simulator's private event queue "
               "(_queue/_heap/_urgent/_normal) and no assignment to "
               "'.now' outside sim/engine.py")

    def check(self, ctx: "FileContext") -> Iterator["Diagnostic"]:
        if ctx.layer is None:
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in _ENGINE_INTERNALS):
                yield self.diag(ctx, node.lineno,
                                f"touches engine internal '.{node.attr}'; "
                                f"use the public Simulator API")
            elif (isinstance(node, ast.Attribute) and node.attr == "now"
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                # Simulator.now is a plain attribute for speed; only the
                # run loop may move the clock
                yield self.diag(ctx, node.lineno,
                                "assigns the simulator clock '.now'; only "
                                "the run loop in sim/engine.py moves it")


class EventStateRule(Rule):
    """No hand-built event states outside the kernel package."""

    name = "sched-event-state"
    summary = ("no assignment to an event's '_ok'/'_state'/'_value' "
               "outside sim/ (build a triggered event with Timeout(sim))")

    def check(self, ctx: "FileContext") -> Iterator["Diagnostic"]:
        if ctx.layer is None:
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Attribute) and node.attr in _EVENT_STATE
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                yield self.diag(ctx, node.lineno,
                                f"sets event field '.{node.attr}' by hand; "
                                f"trigger with succeed()/fail() or build a "
                                f"triggered event with Timeout(sim)")


RULES = (HeapqRule(), EngineInternalsRule(), EventStateRule())
