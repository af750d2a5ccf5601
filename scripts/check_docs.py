#!/usr/bin/env python
"""Docs consistency gate: index coverage, links, CLI accuracy, repo paths.

The handbook under ``docs/`` drifts in four characteristic ways, and
this script fails the build on each of them:

1. **Orphan pages** — a ``docs/*.md`` file that ``docs/README.md`` never
   links, so nobody finds it from the index.
2. **Dead relative links** — ``[text](FILE.md)`` targets (including the
   top-level ``README.md``'s links into ``docs/``) that do not resolve
   on disk.
3. **Stale CLI invocations** — ``sweb-repro ...`` command lines inside
   code blocks or inline code that name a subcommand or flag the real
   ``sweb-repro --help`` no longer has.  Flags are validated against the
   live ``repro.cli.build_parser()`` by introspection, so the docs can
   never silently disagree with the parser.  Flags that declare argparse
   ``choices`` (e.g. ``serve --scheduler``, whose values come from the
   live ``repro.sched`` policy registry) additionally have their
   documented *values* validated — a doc naming a scheduler that was
   never registered, or that got renamed, fails the gate.
4. **Stale repo paths** — a file or directory of the repository named in
   inline code (``src/...``, ``tests/...``, ``benchmarks/...``,
   ``scripts/...``, ``examples/...``) that does not exist.  A pytest node
   id (``::test_x``) or line reference (``:120``) after the path is
   ignored, and a glob must match at least one path.

Beyond ``docs/`` and the top-level ``README.md``, the generated
``EXPERIMENTS.md`` (when present) is scanned for links and CLI
invocations too, so its reproduce lines stay runnable; repo paths are
also checked in ``DESIGN.md`` and ``ROADMAP.md`` (the open-items list
cites tests and sources as instructions).

Usage::

    python scripts/check_docs.py [--root DIR]

``--root`` (default: the repo this script lives in) points at an
alternate tree — the tests use throwaway fixture trees to exercise each
failure mode.  CLI validation always runs against *this* repo's parser.

Exit codes: 0 clean, 1 problems found, 2 bad invocation/missing docs dir.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: [text](target) — excludes image links' leading ! by matching it away.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: inline code spans (single backticks; fenced blocks handled separately)
_INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
_FENCE_RE = re.compile(r"^(```|~~~)")
#: shell tokens that end a sweb-repro invocation's argument list
_STOP_TOKENS = {"&&", "||", ";", "|", ">", ">>", "<", "#", "2>&1"}
#: a repository path: one of the tracked top-level trees, up to the first
#: character that cannot belong to a path
_REPO_PATH_RE = re.compile(
    r"(?<![\w/.])((?:src|tests|benchmarks|scripts|examples)/"
    r"[^\s`'\"()\[\],;]*)")
#: a pytest node id or a line reference after a path
_PATH_SUFFIX_RE = re.compile(r"(::\S*|:\d+(-\d+)?)$")


def markdown_links(text: str) -> list[str]:
    """Every link/image target in a markdown document."""
    return _LINK_RE.findall(text)


def code_regions(text: str) -> list[str]:
    """All code content: fenced block lines plus inline code spans.

    Backslash line-continuations inside fences are joined so a wrapped
    invocation validates as one command line.
    """
    regions: list[str] = []
    in_fence = False
    pending = ""
    for line in text.splitlines():
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            pending = ""
            continue
        if in_fence:
            if line.rstrip().endswith("\\"):
                pending += line.rstrip()[:-1] + " "
                continue
            regions.append(pending + line)
            pending = ""
        else:
            regions.extend(_INLINE_CODE_RE.findall(line))
    return regions


def repo_paths(text: str) -> list[str]:
    """Repository paths named in the doc's inline code spans."""
    found = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in _INLINE_CODE_RE.findall(line):
            for path in _REPO_PATH_RE.findall(span):
                found.append(_PATH_SUFFIX_RE.sub("", path).rstrip("."))
    return found


def cli_invocations(text: str) -> list[str]:
    """``sweb-repro ...`` command lines found in the doc's code regions."""
    found = []
    for region in code_regions(text):
        for match in re.finditer(r"sweb-repro\s+([^\n]*)", region):
            found.append(match.group(1).strip())
        if re.search(r"sweb-repro\s*$", region.strip()):
            found.append("")
    return found


def _flag_choices(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """flag string -> declared argparse ``choices`` values (as strings)."""
    choices: dict[str, set[str]] = {}
    for flag, action in parser._option_string_actions.items():
        if action.choices:
            choices[flag] = {str(c) for c in action.choices}
    return choices


def _cli_surface() -> tuple[dict[str, set[str]], set[str],
                            dict[str, dict[str, set[str]]]]:
    """Introspect the real parser: subcommand -> flags, global flags, and
    per-subcommand flag -> declared value choices.

    The choices map is keyed by subcommand name (``""`` for global
    flags); it is how documented ``--scheduler sweb`` values get checked
    against the live policy registry without a hand-kept list.
    """
    from repro.cli import build_parser

    parser = build_parser()
    subcommands: dict[str, set[str]] = {}
    choices: dict[str, dict[str, set[str]]] = {"": _flag_choices(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                subcommands[name] = set(sub._option_string_actions)
                choices[name] = _flag_choices(sub)
    return subcommands, set(parser._option_string_actions), choices


def check_invocation(invocation: str,
                     subcommands: dict[str, set[str]],
                     global_flags: set[str],
                     choices: dict[str, dict[str, set[str]]] | None = None,
                     ) -> list[str]:
    """Problems with one documented ``sweb-repro`` argument string."""
    tokens = invocation.split()
    if tokens and tokens[0] == "$":
        tokens = tokens[1:]
    problems = []
    subcommand = None
    choices = choices or {}
    pending_choices: set[str] | None = None  # the previous flag's choices
    pending_flag = ""
    for token in tokens:
        if token in _STOP_TOKENS:
            break
        flag, sep, inline_value = token.partition("=")
        if flag.startswith("-"):
            pending_choices = None
            allowed = global_flags | (subcommands.get(subcommand, set())
                                      if subcommand else set())
            if flag not in allowed:
                where = f"'sweb-repro {subcommand}'" if subcommand \
                    else "'sweb-repro'"
                problems.append(f"unknown flag {flag!r} for {where}")
                continue
            flag_choices = choices.get(subcommand or "", {}).get(flag) \
                or choices.get("", {}).get(flag)
            if flag_choices and sep:
                if inline_value not in flag_choices:
                    problems.append(
                        f"bad value {inline_value!r} for {flag}: choose "
                        f"from {', '.join(sorted(flag_choices))}")
            elif flag_choices:
                pending_choices = flag_choices
                pending_flag = flag
        elif pending_choices is not None:
            if token not in pending_choices:
                problems.append(
                    f"bad value {token!r} for {pending_flag}: choose "
                    f"from {', '.join(sorted(pending_choices))}")
            pending_choices = None
        elif subcommand is None:
            if token not in subcommands:
                problems.append(f"unknown subcommand {token!r} "
                                f"(have: {', '.join(sorted(subcommands))})")
                break
            subcommand = token
        # remaining bare tokens are positionals/values — not validated
    return problems


def check_tree(root: Path) -> list[str]:
    """All docs problems in one tree, as 'file: problem' strings."""
    problems: list[str] = []
    docs_dir = root / "docs"
    if not docs_dir.is_dir():
        return [f"{root}: no docs/ directory"]
    index = docs_dir / "README.md"
    pages = sorted(docs_dir.glob("*.md"))

    # 1. every docs page is reachable from the index
    if not index.is_file():
        problems.append("docs/README.md: missing (the index)")
        linked: set[str] = set()
    else:
        linked = {t.split("#", 1)[0] for t in
                  markdown_links(index.read_text())}
    for page in pages:
        if page == index:
            continue
        if page.name not in linked:
            problems.append(f"docs/{page.name}: not linked from "
                            f"docs/README.md index")

    # 2. relative links resolve (docs pages, the top-level README, and
    #    the generated experiment report when present)
    candidates = list(pages)
    for extra in ("README.md", "EXPERIMENTS.md"):
        extra_page = root / extra
        if extra_page.is_file():
            candidates.append(extra_page)
    for page in candidates:
        rel = page.relative_to(root)
        for target in markdown_links(page.read_text()):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (page.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(f"{rel}: dead link -> {target}")

    # 3. documented CLI invocations match the real parser
    subcommands, global_flags, choices = _cli_surface()
    for page in candidates:
        rel = page.relative_to(root)
        for invocation in cli_invocations(page.read_text()):
            for problem in check_invocation(invocation, subcommands,
                                            global_flags, choices):
                problems.append(
                    f"{rel}: in `sweb-repro {invocation}`: {problem}")

    # 4. repo paths named in inline code exist
    extras = [root / name for name in ("DESIGN.md", "ROADMAP.md")]
    for page in candidates + [page for page in extras if page.is_file()]:
        rel = page.relative_to(root)
        for path in repo_paths(page.read_text()):
            exists = (any(root.glob(path)) if "*" in path
                      else (root / path).exists())
            if not exists:
                problems.append(f"{rel}: missing repo path -> {path}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (see module docstring)."""
    parser = argparse.ArgumentParser(
        description="validate docs index, links and CLI invocations")
    parser.add_argument("--root", default=str(REPO_ROOT),
                        help="tree to check (default: this repo)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"check_docs: no such directory: {root}", file=sys.stderr)
        return 2
    problems = check_tree(root)
    if problems:
        for problem in problems:
            print(f"check_docs: {problem}", file=sys.stderr)
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    docs_count = len(list((root / "docs").glob("*.md")))
    print(f"check_docs: ok ({docs_count} docs pages)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
