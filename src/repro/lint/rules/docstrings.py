"""Docstring rules: every module and public class says what it is for.

The reproduction leans on prose — each module opens by citing the part
of the paper it implements — so an undocumented module is a regression.
``tests/test_docstrings.py`` runs this family alone over ``src/repro``
and ``scripts/``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from .base import Rule

if TYPE_CHECKING:
    from ..diagnostics import Diagnostic
    from ..engine import FileContext

__all__ = ["RULES"]


class ModuleDocstringRule(Rule):
    """Modules open with a docstring."""

    name = "doc-module"
    summary = "every module has a docstring"

    def check(self, ctx: "FileContext") -> Iterator["Diagnostic"]:
        if ast.get_docstring(ctx.tree) is None:
            yield self.diag(ctx, 1, "module has no docstring")


class ClassDocstringRule(Rule):
    """Public classes carry a docstring."""

    name = "doc-class"
    summary = "every public class has a docstring"

    def check(self, ctx: "FileContext") -> Iterator["Diagnostic"]:
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")
                    and ast.get_docstring(node) is None):
                yield self.diag(ctx, node.lineno,
                                f"public class {node.name!r} has no "
                                f"docstring")


RULES = (ModuleDocstringRule(), ClassDocstringRule())
