"""Tests for the opcode counter (scripts/count_opcodes.py)."""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "count_opcodes.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=300)


def test_two_runs_print_the_same_table():
    # geo3 at this scale is one simulated second: 40 requests.
    args = ("--workload", "geo3", "--scale", "0.008", "--top", "5")
    first, second = _run(*args), _run(*args)
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    head, functions, heap = first.stdout.split("\n\n")
    lines = head.splitlines()
    assert lines[0].startswith("geo3 input seed 1000, scale 0.008")
    assert lines[0].endswith(": 40 requests")
    assert lines[1].split() == ["layer", "opcodes", "per", "request",
                                "share"]
    layers = {line.split()[0]: int(line.split()[1]) for line in lines[2:]}
    total = layers.pop("total")
    assert total == sum(layers.values()) > 0
    assert {"sim", "web", "geo"} <= set(layers)
    # The five functions that executed the most opcodes, by file.
    rows = functions.splitlines()[1:]
    assert len(rows) == 5
    assert rows[0].startswith("repro/sim/")
    # The heap's depth, then kernel dispatches and the cyclic collector's
    # work, from an untraced rerun of the same replica.
    heap_line, kernel_line = heap.splitlines()
    assert re.fullmatch(r"event heap \(untraced rerun\): high-water \d+ "
                        r"entries, mean \d+\.\d at each push", heap_line)
    kernel = re.fullmatch(
        r"kernel \(untraced rerun\): (\d+\.\d\d) dispatches per request; "
        r"cyclic gc (\d+)/(\d+)/(\d+) collections \(gen 0/1/2\), "
        r"(\d+\.\d\d) objects collected per request", kernel_line)
    assert kernel is not None, kernel_line
    assert float(kernel.group(1)) > 0
    # Finished jobs and series are freed by reference counting.
    assert float(kernel.group(5)) == 0.0


def test_bad_scale_is_a_usage_error():
    result = _run("--workload", "geo3", "--scale", "0")
    assert result.returncode == 2
    assert "--scale" in result.stderr
