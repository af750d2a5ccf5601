"""The docstring rules (``repro.lint.rules.docstrings``) pass repo-wide."""

from pathlib import Path

from repro.lint import run_lint
from repro.lint.rules import docstrings

REPO = Path(__file__).resolve().parent.parent


def _problems(*paths):
    return [f"{d.path}:{d.line}: {d.message}"
            for d in run_lint(paths or None, rules=docstrings.RULES)]


def test_every_module_and_public_class_is_documented():
    problems = _problems(REPO / "src" / "repro")
    assert problems == [], "\n".join(problems)


def test_scripts_tree_is_documented():
    problems = _problems(REPO / "scripts")
    assert problems == [], "\n".join(problems)


def test_lint_catches_missing_docstrings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("class Undocumented:\n    pass\n")
    problems = _problems(tmp_path)
    assert len(problems) == 2          # bare module + bare class
    assert any("Undocumented" in p for p in problems)


def test_lint_default_covers_library_and_scripts():
    # With no paths the analyzer lints src/ and scripts/.
    assert _problems() == []
