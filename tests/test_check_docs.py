"""Tests for the docs consistency gate (scripts/check_docs.py).

Runs the checker against the live repo tree (the tier-1 wiring: docs
must stay consistent with the CLI) and against throwaway fixture trees
that exercise each failure mode — orphan pages, dead relative links,
stale ``sweb-repro`` invocations, and repo paths that do not exist.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_docs.py"

spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


def _tree(tmp_path, index="", pages=None, readme=None):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "README.md").write_text(index)
    for name, text in (pages or {}).items():
        (docs / name).write_text(text)
    if readme is not None:
        (tmp_path / "README.md").write_text(readme)
    return tmp_path


# -- the live tree (the tier-1 gate) ---------------------------------------

def test_live_repo_tree_is_clean(capsys):
    assert check_docs.main(["--root", str(REPO)]) == 0
    assert "ok" in capsys.readouterr().out


# -- failure modes against fixtures ----------------------------------------

def test_clean_fixture_passes(tmp_path, capsys):
    root = _tree(tmp_path,
                 index="# Index\n- [Guide](GUIDE.md)\n",
                 pages={"GUIDE.md": "Run `sweb-repro bench --scale M`.\n"
                                    "Back to [index](README.md).\n"},
                 readme="See [the guide](docs/GUIDE.md).\n")
    assert check_docs.main(["--root", str(root)]) == 0
    capsys.readouterr()


def test_orphan_page_fails(tmp_path):
    root = _tree(tmp_path, index="# Index\n",
                 pages={"LONELY.md": "nobody links me\n"})
    problems = check_docs.check_tree(root)
    assert any("LONELY.md" in p and "not linked" in p for p in problems)


def test_dead_relative_link_fails(tmp_path):
    root = _tree(tmp_path,
                 index="- [Guide](GUIDE.md)\n",
                 pages={"GUIDE.md": "see [gone](MISSING.md) "
                                    "and [anchor](#fine) and "
                                    "[web](https://example.com/x.md)\n"},
                 readme="[also gone](docs/NOPE.md)\n")
    problems = check_docs.check_tree(root)
    dead = [p for p in problems if "dead link" in p]
    assert len(dead) == 2
    assert any("MISSING.md" in p for p in dead)
    assert any("NOPE.md" in p for p in dead)


def test_stale_cli_invocations_fail(tmp_path):
    root = _tree(tmp_path,
                 index="- [G](G.md)\n",
                 pages={"G.md": (
                     "```\n"
                     "$ sweb-repro frobnicate --fast\n"
                     "sweb-repro bench --no-such-flag\n"
                     "sweb-repro bench --scale L && echo done\n"
                     "sweb-repro bench \\\n"
                     "    --repeats 5\n"
                     "```\n"
                     "Inline `sweb-repro lint --nonexistent` too.\n")})
    problems = check_docs.check_tree(root)
    assert any("unknown subcommand 'frobnicate'" in p for p in problems)
    assert any("'--no-such-flag'" in p for p in problems)
    assert any("'--nonexistent'" in p for p in problems)
    # valid invocations — including the backslash-continued one and the
    # one followed by shell chaining — produce no noise
    assert not any("--scale" in p or "--repeats" in p for p in problems)


def test_valid_flag_forms_accepted(tmp_path):
    root = _tree(tmp_path,
                 index="- [G](G.md)\n",
                 pages={"G.md": "`sweb-repro bench --scale=M --out x.json`\n"
                                "`sweb-repro --help`\n"
                                "`sweb-repro run T1 --full`\n"})
    problems = check_docs.check_tree(root)
    cli = [p for p in problems if "sweb-repro" in p]
    assert cli == []


def test_choices_flag_values_validated(tmp_path):
    root = _tree(tmp_path,
                 index="- [G](G.md)\n",
                 pages={"G.md": (
                     "`sweb-repro serve --scheduler sweb --nodes 4`\n"
                     "`sweb-repro serve --scheduler=jsq`\n"
                     "`sweb-repro serve --scheduler frobnicator`\n"
                     "`sweb-repro serve --testbed=vax`\n")})
    problems = check_docs.check_tree(root)
    bad = [p for p in problems if "bad value" in p]
    assert len(bad) == 2
    assert any("'frobnicator'" in p and "--scheduler" in p for p in bad)
    assert any("'vax'" in p and "--testbed" in p for p in bad)
    # the valid spellings (space and = forms) produce no noise
    assert not any("'sweb'" in p or "'jsq'" in p for p in problems)


def test_experiments_page_scanned(tmp_path):
    root = _tree(tmp_path, index="")
    (root / "EXPERIMENTS.md").write_text(
        "see [gone](nowhere.md)\n"
        "`sweb-repro serve --scheduler nosuch`\n")
    problems = check_docs.check_tree(root)
    assert any("EXPERIMENTS.md" in p and "dead link" in p
               for p in problems)
    assert any("EXPERIMENTS.md" in p and "bad value 'nosuch'" in p
               for p in problems)


def test_missing_docs_dir_and_bad_root(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert check_docs.check_tree(empty) == [f"{empty}: no docs/ directory"]
    assert check_docs.main(["--root", str(tmp_path / "absent")]) == 2
    root = _tree(tmp_path, index="", pages={"X.md": "hi\n"})
    assert check_docs.main(["--root", str(root)]) == 1
    capsys.readouterr()


def test_missing_index_reported(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "PAGE.md").write_text("hello\n")
    problems = check_docs.check_tree(tmp_path)
    assert any("docs/README.md: missing" in p for p in problems)


# -- parsing helpers -------------------------------------------------------

def test_code_region_extraction():
    text = ("prose sweb-repro not-code\n"
            "```sh\n"
            "sweb-repro list\n"
            "```\n"
            "and `sweb-repro bench` inline\n")
    invocations = check_docs.cli_invocations(text)
    assert "list" in invocations
    assert "bench" in invocations
    # the prose mention is not treated as an invocation
    assert not any("not-code" in inv for inv in invocations)


def test_markdown_links_extraction():
    links = check_docs.markdown_links(
        "[a](X.md) ![img](pic.png) [b](Y.md#sec) [c](http://e.com)")
    assert links == ["X.md", "pic.png", "Y.md#sec", "http://e.com"]


def test_missing_repo_paths_fail(tmp_path):
    root = _tree(tmp_path,
                 index="- [G](G.md)\n",
                 pages={"G.md": (
                     "Real: `src/pkg/mod.py`, `tests/test_a.py::test_x`, "
                     "`src/pkg/mod.py:12`, `tests/data/*.json`, "
                     "`python scripts/tool.py --flag`, `examples/`.\n"
                     "Stale: `src/pkg/gone.py` and `tests/data/*.csv`.\n"
                     "```\n"
                     "python benchmarks/fenced_is_not_checked.py\n"
                     "```\n"
                     "Not a repo path: `other/src/x.py`, `mysrc/y.py`.\n")},
                 readme="`benchmarks/test_bench_old.py`\n")
    for rel in ("src/pkg/mod.py", "tests/test_a.py", "tests/data/g.json",
                "scripts/tool.py", "examples/demo.py"):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text("")
    (root / "DESIGN.md").write_text(
        "| S1 | `benchmarks/test_bench_analysis.py` |\n")
    problems = [p for p in check_docs.check_tree(root)
                if "missing repo path" in p]
    assert sorted(problems) == [
        "DESIGN.md: missing repo path -> benchmarks/test_bench_analysis.py",
        "README.md: missing repo path -> benchmarks/test_bench_old.py",
        "docs/G.md: missing repo path -> src/pkg/gone.py",
        "docs/G.md: missing repo path -> tests/data/*.csv",
    ]


def test_roadmap_repo_paths_checked(tmp_path):
    root = _tree(tmp_path, index="")
    (root / "src").mkdir()
    (root / "src" / "here.py").write_text("")
    (root / "ROADMAP.md").write_text(
        "- Pin it in `tests/test_gone.py::test_x`; the code is in "
        "`src/here.py:3`.\n")
    problems = [p for p in check_docs.check_tree(root)
                if "missing repo path" in p]
    assert problems == ["ROADMAP.md: missing repo path -> tests/test_gone.py"]


def test_repo_path_extraction():
    text = ("`src/a.py` and `PYTHONPATH=src python tests/t.py --regen` and "
            "`tests/t.py::test_y`, `src/b.py:10-20`\n"
            "```\n`scripts/in_fence.py`\n```\n")
    assert check_docs.repo_paths(text) == [
        "src/a.py", "tests/t.py", "tests/t.py", "src/b.py"]
