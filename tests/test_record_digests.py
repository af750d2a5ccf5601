"""Tests for the record digest script (scripts/record_digests.py)."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "record_digests.py"

spec = importlib.util.spec_from_file_location("record_digests", SCRIPT)
record_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_digests)


def test_same_cases_print_the_same_digests(capsys):
    # Cases 0-4 of smoke seed 7 hold three non-fluid cases (0, 2 and 4).
    assert record_digests.main(["--seed", "7", "--cases", "5"]) == 0
    first = capsys.readouterr().out
    assert record_digests.main(["--seed", "7", "--cases", "5"]) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["0", "scenario"], ["2", "scenario"], ["4", "scenario"]]
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert len({line.split()[2] for line in lines}) == 3


def test_negative_case_count_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        record_digests.main(["--cases", "-1"])
    assert exit_info.value.code == 2
