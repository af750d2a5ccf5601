#!/usr/bin/env python
"""Count executed bytecodes per request, per ``repro`` layer.

Runs one replica of a perfbench workload at a reduced scale under
``sys.settrace`` with ``f_trace_opcodes`` set on every frame, and counts
each executed opcode against a layer by perfbench's layer map
(``perfbench/hooks.py``): the ``repro.<package>`` of the innermost
``repro`` frame on the stack, so an opcode of a stdlib or numpy Python
function counts against the layer that called it; ``repro_other`` for a
repro module outside the named layers; ``nonrepro`` when no ``repro``
frame is on the stack.  Opcodes of C code (``heapq``, numpy kernels,
allocation) are not counted.  Only the workload's run is counted: its
inputs are prepared before tracing starts.  The workloads and the layer
map come from ``perfbench/``, imported as they are and never modified.

Unlike a host-time profile, the counts do not depend on the machine or
its load: the same tree, Python version and arguments print the same
table, so two trees can be compared run against run::

    python scripts/count_opcodes.py --workload geo3 --scale 0.1
    python scripts/count_opcodes.py --workload meiko_bimodal --scale 0.2 \\
        --top 15

The replica is always perfbench's replica 0 of seed 1 (input seed
1000), so every table counts the same requests; ``--top N`` adds the N
functions that executed the most opcodes themselves, each named by its
file and qualified name.  Tracing every opcode makes the run ~30x slower than an
untraced one, so keep ``--scale`` small.  Two last lines come from a
second, untraced run of the same replica, and show costs the opcode
counts cannot see: the event heap's high-water mark and its mean length
at each push (paid in ``heapq``'s C code), then the kernel's dispatches
per request and the cyclic garbage collector's work (its collections
per generation, and the objects it freed per request, counted from a
``gc.collect()`` just before the run).

Exit codes: 0 ok, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Iterator, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT), str(REPO_ROOT / "src")]

from perfbench.hooks import LAYERS, NON_REPRO, OTHER_REPRO  # noqa: E402
from perfbench.workloads import WORKLOADS, replica_seed  # noqa: E402

#: the replica every count runs: perfbench's replica 0 of seed 1
INPUT_SEED = replica_seed(1, 0)

#: the repro package directory, with a trailing separator
_REPRO_DIR = os.path.join(str(REPO_ROOT / "src" / "repro"), "")


def repro_layer(filename: str) -> Optional[str]:
    """Layer of a ``repro`` code file; None for any other file."""
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR):
        return None
    package = path[len(_REPRO_DIR):].split(os.sep)[0]
    return package if package in LAYERS else OTHER_REPRO


def count(workload_name: str, scale: float) -> tuple[dict, dict, int]:
    """(opcodes per layer, opcodes per code object, requests) of one
    traced replica run."""
    workload = WORKLOADS[workload_name]
    prepared = workload.prepare(INPUT_SEED, scale)
    layers: dict[str, int] = {}
    codes: dict = {}
    file_layers: dict[str, Optional[str]] = {}
    tracers: dict = {}

    def layer_of_file(filename: str) -> Optional[str]:
        if filename not in file_layers:
            file_layers[filename] = repro_layer(filename)
        return file_layers[filename]

    def tracer(layer: str):
        """The per-frame opcode counter of ``layer``, made once."""
        if layer not in tracers:
            layers[layer] = 0

            def local(frame, event, arg):
                if event == "opcode":
                    layers[layer] += 1
                    code = frame.f_code
                    codes[code] = codes.get(code, 0) + 1
                return local
            tracers[layer] = local
        return tracers[layer]

    def on_call(frame, event, arg):
        # Also called each time a generator resumes, so its owner is
        # the innermost repro frame of the stack it resumes on.
        owner = frame
        layer = layer_of_file(owner.f_code.co_filename)
        while layer is None and owner.f_back is not None:
            owner = owner.f_back
            layer = layer_of_file(owner.f_code.co_filename)
        frame.f_trace_opcodes = True
        return tracer(layer or NON_REPRO)

    sys.settrace(on_call)
    try:
        result = workload.execute(prepared)
    finally:
        sys.settrace(None)
    return layers, codes, workload.outcome(result).offered


def untraced(workload_name: str, scale: float) -> dict:
    """What one untraced run of the same replica shows beyond opcodes:
    the event heap's high-water mark (``heap_high``) and mean length at
    each push (``heap_mean``), kernel dispatches per request
    (``dispatches``), and the cyclic collector's collections per
    generation (``collections``) and objects freed per request
    (``collected``).

    Wraps the kernel module's ``heappush`` for the run, so the heap
    figures cover every push but ``run()``'s stop markers; runs are
    deterministic, so they describe the traced run exactly without
    adding to its counts."""
    import repro.sim.engine as engine

    workload = WORKLOADS[workload_name]
    prepared = workload.prepare(INPUT_SEED, scale)
    push = engine.heappush
    high = pushes = total = 0

    def counting(heap, entry):
        nonlocal high, pushes, total
        push(heap, entry)
        depth = len(heap)
        high = max(high, depth)
        pushes += 1
        total += depth

    engine.heappush = counting
    gc.collect()
    before = gc.get_stats()
    try:
        outcome = workload.outcome(workload.execute(prepared))
    finally:
        engine.heappush = push
    after = gc.get_stats()
    per = max(outcome.offered, 1)
    return {
        "heap_high": high, "heap_mean": total / max(pushes, 1),
        "dispatches": outcome.events / per,
        "collections": [b["collections"] - a["collections"]
                        for a, b in zip(before, after)],
        "collected": sum(b["collected"] - a["collected"]
                         for a, b in zip(before, after)) / per,
    }


def _function_name(code) -> str:
    path = Path(code.co_filename)
    try:
        where = str(path.resolve().relative_to(REPO_ROOT / "src"))
    except ValueError:
        where = path.name
    # co_qualname is new in Python 3.11; 3.10 names the bare function.
    return f"{where}:{getattr(code, 'co_qualname', code.co_name)}"


def report(layers: dict, codes: dict, requests: int,
           top: int) -> Iterator[str]:
    """The table's lines: layers by opcodes, the total, then ``top``
    functions."""
    total = sum(layers.values())
    per = max(requests, 1)
    yield f"{'layer':<14} {'opcodes':>12} {'per request':>12} {'share':>7}"
    for layer, n in sorted(layers.items(), key=lambda kv: (-kv[1], kv[0])):
        yield f"{layer:<14} {n:>12} {n / per:>12.1f} {n / total:>7.3f}"
    yield f"{'total':<14} {total:>12} {total / per:>12.1f} {1:>7.3f}"
    if top > 0:
        yield ""
        yield f"{'function':<58} {'per request':>12} {'share':>7}"
        named: dict[str, int] = {}
        for code, n in codes.items():
            name = _function_name(code)
            named[name] = named.get(name, 0) + n
        for name, n in sorted(named.items(),
                              key=lambda kv: (-kv[1], kv[0]))[:top]:
            yield f"{name[-58:]:<58} {n / per:>12.1f} {n / total:>7.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Count executed bytecodes per request, per repro layer.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--scale", type=float, default=0.1,
                        help="request-count multiplier (default 0.1)")
    parser.add_argument("--top", type=int, default=0,
                        help="also list the N functions with the most "
                        "opcodes (default 0)")
    args = parser.parse_args(argv)
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")
    layers, codes, requests = count(args.workload, args.scale)
    print(f"{args.workload} input seed {INPUT_SEED}, "
          f"scale {args.scale:g}: {requests} requests")
    for line in report(layers, codes, requests, args.top):
        print(line)
    rerun = untraced(args.workload, args.scale)
    print()
    print(f"event heap (untraced rerun): high-water {rerun['heap_high']} "
          f"entries, mean {rerun['heap_mean']:.1f} at each push")
    collections = "/".join(str(n) for n in rerun["collections"])
    print(f"kernel (untraced rerun): {rerun['dispatches']:.2f} dispatches "
          f"per request; cyclic gc {collections} collections (gen 0/1/2), "
          f"{rerun['collected']:.2f} objects collected per request")
    return 0


if __name__ == "__main__":
    sys.exit(main())
