#!/usr/bin/env python
"""Print one record digest per non-fluid fuzz case.

Each per-client and geo case of a fuzz campaign runs through
``repro.fuzz.run_case``, and the script prints one line per case::

    <index> <mode> <sha256>

The digest covers the run fingerprints, the offered/settled/completed/
dropped totals, the exact finish time (``float.hex``), the page-cache and
geo-budget accounts and the trace reconciliation failures: everything a
request record shows.  Fluid cases are skipped, since the per-client
kernel never runs in them.

The script writes no file.  To check that a change leaves every record
bit-identical, run it in both trees and compare the outputs::

    python scripts/record_digests.py --seed 7 --cases 60 > before.txt
    (in the other tree) python scripts/record_digests.py --seed 7 \\
        --cases 60 > after.txt
    diff before.txt after.txt

Exit codes: 0 ok, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fuzz import generate_config, profile_by_name, run_case  # noqa: E402


def case_digest(outcome) -> str:
    """sha256 over everything one case's records show."""
    digest = hashlib.sha256()
    for part in (outcome.fingerprints,
                 (outcome.offered, outcome.settled, outcome.completed,
                  outcome.dropped),
                 outcome.finished_at.hex(),
                 outcome.caches, outcome.geo_budgets,
                 outcome.trace_failures):
        digest.update(repr(part).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def case_lines(seed: int, cases: int, profile: str) -> Iterator[str]:
    """``index mode digest`` for each non-fluid case among the first
    ``cases`` of the campaign seeded by ``seed``."""
    prof = profile_by_name(profile)
    for index in range(cases):
        config = generate_config(seed, index, prof)
        if config.mode == "fluid":
            continue
        yield f"{index} {config.mode} {case_digest(run_case(config))}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print a record digest per non-fluid fuzz case.")
    parser.add_argument("--seed", type=int, default=7,
                        help="campaign root seed (default 7)")
    parser.add_argument("--cases", type=int, default=20,
                        help="cases drawn, fluid ones included (default 20)")
    parser.add_argument("--profile", default="smoke",
                        choices=["smoke", "full"],
                        help="generation profile (default smoke)")
    args = parser.parse_args(argv)
    if args.cases < 0:
        parser.error("--cases must be >= 0")
    for line in case_lines(args.seed, args.cases, args.profile):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
