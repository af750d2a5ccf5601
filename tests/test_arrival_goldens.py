"""Bit-for-bit pins of the arrival streams the workload builders draw.

Each entry is the sha256 over every arrival's ``(time.hex(), path,
client)`` in order, for the paper's uniform burst, ``burst_workload``
over each sampler kind (uniform, Zipf, Zipf hot set with a cold tail,
weighted, and a client mix), ``poisson_workload`` and every adversary;
``bimodal_corpus`` is pinned by its ``(path, size.hex(), home)`` rows.
A change to how the builders draw (batched or one at a time) must leave
every stream, and so every request record, as it was.

If a change legitimately alters a stream, regenerate::

    PYTHONPATH=src python tests/test_arrival_goldens.py --regenerate

and explain the behaviour change in the commit message.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.sim import RandomStreams
from repro.workload import (
    adversary_names,
    bimodal_corpus,
    burst_workload,
    make_adversary,
    poisson_workload,
    uniform_burst,
    uniform_corpus,
    uniform_sampler,
    weighted_sampler,
    zipf_sampler,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "arrival_goldens.json"


def _corpus():
    return bimodal_corpus(n_files=120, n_nodes=6, seed=5)


def _digest_arrivals(workload) -> str:
    h = hashlib.sha256()
    for a in workload.arrivals:
        h.update(f"{a.time.hex()} {a.path} {a.client}\n".encode())
    return h.hexdigest()


def _uniform_burst():
    return uniform_burst(_corpus(), rps=25, duration=30)


def _burst_uniform():
    return burst_workload(17, 20, uniform_sampler(_corpus(),
                                                  RandomStreams(seed=3)))


def _burst_zipf():
    return burst_workload(23, 20, zipf_sampler(_corpus(), RandomStreams(seed=4),
                                               alpha=0.9))


def _burst_hot_tail():
    return burst_workload(19, 25, zipf_sampler(_corpus(), RandomStreams(seed=6),
                                               alpha=1.1, hot_set=30,
                                               tail_weight=0.25))


def _burst_weighted():
    choices = [(f"/w{i}", float(1 + (i * 7) % 5)) for i in range(9)]
    return burst_workload(11, 15, weighted_sampler(choices,
                                                   RandomStreams(seed=8)))


def _burst_client_mix():
    rng = RandomStreams(seed=9)
    return burst_workload(
        21, 20, uniform_sampler(uniform_corpus(40, 1e4, 4), rng),
        client_mix=[("ucsb", 0.5), ("rutgers", 0.3), ("flood", 0.2)],
        rng=rng)


def _poisson():
    rng = RandomStreams(seed=10)
    return poisson_workload(30.0, 40.0, zipf_sampler(_corpus(), rng), rng)


def _adversary(name):
    def build():
        wl, _ = make_adversary(name, _corpus(), RandomStreams(seed=12),
                               rps=9, duration=20)
        return wl
    return build


WORKLOADS = {
    "uniform_burst": _uniform_burst,
    "burst_uniform": _burst_uniform,
    "burst_zipf": _burst_zipf,
    "burst_hot_tail": _burst_hot_tail,
    "burst_weighted": _burst_weighted,
    "burst_client_mix": _burst_client_mix,
    "poisson": _poisson,
    **{f"adversary_{n}": _adversary(n) for n in adversary_names()},
}

#: (n_files, n_nodes, large_frac, placement, seed) per bimodal corpus
CORPORA = {
    "bimodal_table3": (300, 6, 0.5, "round-robin", 0),
    "bimodal_random": (257, 5, 0.3, "random", 17),
}


def _digest_corpus(name: str) -> str:
    n_files, n_nodes, large_frac, placement, seed = CORPORA[name]
    corpus = bimodal_corpus(n_files, n_nodes, large_frac=large_frac,
                            placement=placement, seed=seed)
    h = hashlib.sha256()
    for d in corpus.documents:
        h.update(f"{d.path} {d.size.hex()} {d.home}\n".encode())
    return h.hexdigest()


def _compute() -> dict:
    out = {f"workload/{name}": _digest_arrivals(build())
           for name, build in WORKLOADS.items()}
    out.update({f"corpus/{name}": _digest_corpus(name) for name in CORPORA})
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_stream():
    assert set(_golden()) == ({f"workload/{n}" for n in WORKLOADS}
                              | {f"corpus/{n}" for n in CORPORA})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_arrival_stream_is_pinned(name):
    assert _digest_arrivals(WORKLOADS[name]()) == _golden()[f"workload/{name}"]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_bimodal_corpus_is_pinned(name):
    assert _digest_corpus(name) == _golden()[f"corpus/{name}"]


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True)
                          + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print(json.dumps(_compute(), indent=1, sort_keys=True))
