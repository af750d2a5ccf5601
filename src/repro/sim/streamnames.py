"""Central registry of every named RNG substream in the reproduction.

:class:`repro.sim.rng.RandomStreams` derives each substream's seed from
``crc32(name)`` — which means two *different* names that happen to
share a crc32 value would silently yield **identical** "independent"
streams and quietly correlate whatever they drive.  Registering every
name here makes the namespace auditable: ``sweb-repro lint --deep``
statically collects every name used anywhere in ``src/repro``, checks
the used and registered sets coincide, and proves the registered set is
crc32-collision-free (see ``lint/rules/streams.py``).

Adding a substream = pick a fresh name at the call site *and* add it
here with a one-line purpose; the deep lint gate holds you to both.
"""

from __future__ import annotations

import zlib

__all__ = ["STREAM_NAMES", "crc32_key", "registered_names",
           "stream_collisions"]

#: every named substream, with the draw it feeds.  Keys are the exact
#: string literals passed to RandomStreams methods; values are
#: documentation only.
STREAM_NAMES: dict[str, str] = {
    # workload/corpus.py — synthetic file-corpus construction
    "placement": "home node for each generated file",
    "kind": "large-vs-small coin flip for the bimodal corpus",
    "large": "sizes of the large files in the bimodal corpus",
    "small": "log-uniform sizes of the small bimodal files",
    "imgsize": "per-image size jitter for the image corpus",
    "thumb": "thumbnail sizes for the gallery corpus",
    "full": "full-resolution image sizes for the gallery corpus",
    "meta": "metadata-file sizes for the gallery corpus",
    # workload/generators.py — request samplers and arrival processes
    "sampler": "uniform path draws (uniform_sampler default stream)",
    "zipf": "Zipf-ranked path draws (zipf_sampler default stream)",
    "zipf-tail": "uniform tail beyond the hot set in zipf_sampler",
    "weighted": "explicit-probability path draws (weighted_sampler)",
    "client-mix": "which client class issues the next burst request",
    "poisson": "exponential inter-arrival gaps in poisson_workload",
    # workload/fluid.py — aggregate million-request model
    "fluid-arrivals": "per-step Poisson arrival counts",
    "fluid-paths": "batched path-index draws for fluid cells",
    "fluid-sizes": "response-size draws for the fluid service tables",
    "fluid-choice": "random-policy node picks in the fluid stepper",
    "fluid-po2": "power-of-two candidate pairs in the fluid stepper",
    # core/policies.py — per-client scheduling strategies
    "random-policy": "uniform node pick for the random strategy",
    "po2-policy": "two-candidate sampling for power-of-two-choices",
    # experiments/striping.py — stripe-read burst driver
    "pick": "which striped file each burst request fetches",
    # workload/adversaries.py — hostile client actors
    "adv-hotspot": "target picks and burst jitter for the hotspot flood",
    "adv-cachebust": "corpus-permutation walk for the cache-busting churn",
    "adv-slowdrip": "arrival jitter and path picks for slow-drip clients",
    "adv-dnsskew": "arrival jitter for the DNS-cache skew flood",
    # fuzz/generator.py — randomized end-to-end configuration draws
    "fuzz-shape": "topology draws: mode, node count, het/hom, policy",
    "fuzz-workload": "workload draws: rates, sizes, skew, adversary",
    "fuzz-faults": "fault-plan draws: clause count, kinds, windows",
    "fuzz-knobs": "cache/broker/mitigation knob draws",
    # geo/scenario.py — multi-site client population assignment
    "geo-affinity": "home-site draw for each arriving client request",
    # fuzz/generator.py — geo dimension draws (independent substream)
    "fuzz-geo": "geo draws: site count, WAN link matrix, edge budgets",
}


def crc32_key(name: str) -> int:
    """The seed key ``RandomStreams`` derives for ``name``."""
    return zlib.crc32(name.encode("utf-8"))


def registered_names() -> tuple[str, ...]:
    """Every registered substream name, sorted."""
    return tuple(sorted(STREAM_NAMES))


def stream_collisions(names: tuple[str, ...] | None = None
                      ) -> tuple[tuple[str, str], ...]:
    """Pairs of distinct names sharing a crc32 key (ideally empty)."""
    pool = registered_names() if names is None else tuple(sorted(names))
    by_key: dict[int, str] = {}
    out: list[tuple[str, str]] = []
    for name in pool:
        key = crc32_key(name)
        if key in by_key and by_key[key] != name:
            out.append((by_key[key], name))
        else:
            by_key[key] = name
    return tuple(out)
