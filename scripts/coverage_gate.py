#!/usr/bin/env python3
"""Coverage gate for the ``repro.obs`` subsystem (docs/TRACING.md).

Policy: the observability layer — the newest subsystem, and the one
every other layer publishes into — must stay at least 90 % statement-
covered by its own test modules (``tests/test_obs_*.py``); the repo-wide
number is *reported* but not gated.

Two measurement paths, because the gate must work in a container with
no network access:

* when ``pytest-cov`` is installed, delegate to it (subprocess) — the
  canonical measurement, with branch-aware reporting configured in
  ``pyproject.toml``;
* otherwise fall back to a stdlib ``sys.settrace`` statement counter:
  enumerate every statement in ``src/repro/obs`` via ``ast``, run the
  obs test modules' zero-argument ``test_*`` callables in-process, and
  mark a statement hit when any traced line lands inside its
  ``lineno..end_lineno`` range (lenient on multi-line statements, which
  is what a line tracer can actually observe).

Exit status: 0 when the obs floor holds, 1 when it does not, 2 on
measurement failure.  ``tests/test_coverage_gate.py`` runs the fallback
in-process so the floor is enforced by tier-1 even without pytest-cov.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Iterable, Optional

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OBS_DIR = SRC / "repro" / "obs"
OBS_TEST_MODULES = (
    "tests.test_obs_events",
    "tests.test_obs_model",
    "tests.test_obs_registry",
    "tests.test_obs_export",
)
FLOOR = 90.0


def obs_files() -> list[Path]:
    """Every source file the gate measures."""
    return sorted(OBS_DIR.glob("*.py"))


def statement_lines(path: Path) -> dict[int, int]:
    """Map each statement's first line to its last line.

    One entry per ``ast.stmt`` node; compound statements (``if``,
    ``for``, ``def``) count through their header line only, since the
    body statements get their own entries.  Docstring expressions are
    excluded (CPython emits no line event for them) and so are lines
    carrying a ``pragma: no cover`` comment — the same exclusions
    pytest-cov applies via ``pyproject.toml``.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    out: dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            if (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            if "pragma: no cover" in lines[node.lineno - 1]:
                continue
            end = getattr(node, "end_lineno", None) or node.lineno
            if isinstance(node, (ast.If, ast.For, ast.While, ast.With,
                                 ast.Try, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
                end = node.lineno
            out.setdefault(node.lineno, max(out.get(node.lineno, 0), end))
    return out


def _runnable_tests(module) -> Iterable[tuple[str, Callable]]:
    """Zero-argument ``test_*`` callables (fixture-needing ones skipped)."""
    for name in sorted(dir(module)):
        if not name.startswith("test_"):
            continue
        fn = getattr(module, name)
        if not callable(fn):
            continue
        if getattr(fn, "__coverage_gate_skip__", False):
            continue
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # pragma: no cover - C callables
            continue
        required = [p for p in params.values()
                    if p.default is inspect.Parameter.empty
                    and p.kind in (p.POSITIONAL_OR_KEYWORD, p.POSITIONAL_ONLY)]
        if required:
            continue
        yield name, fn


def _reimport_obs_under_trace() -> None:
    """Exec the obs modules afresh so import-time statements count.

    pytest-cov starts measuring before imports; the settrace fallback
    starts after, so module-level lines (``def``/``class`` headers,
    ``__all__``...) would otherwise read as missed.  The fresh module
    objects are discarded — ``sys.modules`` is restored so the rest of
    the process keeps the originally-imported classes.
    """
    names = [n for n in sys.modules
             if n == "repro.obs" or n.startswith("repro.obs.")]
    saved = {n: sys.modules.pop(n) for n in names}
    try:
        importlib.import_module("repro.obs")
    finally:
        for n in [n for n in sys.modules
                  if n == "repro.obs" or n.startswith("repro.obs.")]:
            del sys.modules[n]
        sys.modules.update(saved)


def measure_fallback(verbose: bool = False) -> Optional[dict[str, float]]:
    """Statement coverage of ``repro.obs`` via ``sys.settrace``.

    Returns per-file percentages plus ``"TOTAL"``, or ``None`` when
    measurement is impossible (another tracer is already installed —
    a debugger, or pytest-cov itself).
    """
    if sys.gettrace() is not None:
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(REPO) not in sys.path:
        sys.path.insert(0, str(REPO))

    targets = {str(path): statement_lines(path) for path in obs_files()}
    hits: dict[str, set[int]] = {filename: set() for filename in targets}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename in hits:
            if event == "line":
                hits[filename].add(frame.f_lineno)
            return tracer
        # Returning the local tracer only for obs frames keeps the
        # overhead bounded: foreign frames are never line-traced.
        return tracer if event == "call" and filename in hits else None

    modules = [importlib.import_module(name) for name in OBS_TEST_MODULES]
    sys.settrace(tracer)
    try:
        _reimport_obs_under_trace()
        for module in modules:
            for name, fn in _runnable_tests(module):
                if verbose:
                    print(f"  running {module.__name__}.{name}")
                fn()
    finally:
        sys.settrace(None)

    report: dict[str, float] = {}
    total_stmts = total_hit = 0
    for filename, stmts in sorted(targets.items()):
        lines_hit = hits[filename]
        covered = sum(
            1 for start, end in stmts.items()
            if any(start <= line <= end for line in lines_hit))
        total_stmts += len(stmts)
        total_hit += covered
        rel = os.path.relpath(filename, REPO)
        report[rel] = 100.0 * covered / len(stmts) if stmts else 100.0
    report["TOTAL"] = (100.0 * total_hit / total_stmts
                       if total_stmts else 100.0)
    return report


def _have_pytest_cov() -> bool:
    try:
        importlib.import_module("pytest_cov")
        return True
    except ImportError:
        return False


def run_pytest_cov() -> int:
    """Canonical path: delegate to pytest-cov in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    test_files = [f"tests/{name.split('.')[-1]}.py"
                  for name in OBS_TEST_MODULES]
    gate = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--cov=repro.obs", "--cov-report=term-missing",
         f"--cov-fail-under={FLOOR:.0f}", *test_files],
        cwd=REPO, env=env)
    if gate.returncode != 0:
        return 1
    # Repo-wide number: informational only, never gated.
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--cov=repro",
         "--cov-report=term", "tests"],
        cwd=REPO, env=env)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    verbose = "-v" in argv or "--verbose" in argv
    force_fallback = "--fallback" in argv
    if _have_pytest_cov() and not force_fallback:
        return run_pytest_cov()
    print("pytest-cov not installed; using stdlib settrace fallback"
          if not force_fallback else "running stdlib settrace fallback")
    report = measure_fallback(verbose=verbose)
    if report is None:
        print("cannot measure: a trace function is already installed")
        return 2
    width = max(len(name) for name in report)
    for name, pct in report.items():
        if name != "TOTAL":
            print(f"  {name:<{width}}  {pct:6.1f}%")
    total = report["TOTAL"]
    print(f"  {'TOTAL':<{width}}  {total:6.1f}%  (floor {FLOOR:.0f}%)")
    if total < FLOOR:
        print(f"FAIL: repro.obs statement coverage {total:.1f}% "
              f"is below the {FLOOR:.0f}% floor")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
