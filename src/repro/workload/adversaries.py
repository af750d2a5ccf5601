"""Adversarial client actors: hostile workloads the cluster must survive.

SWEB's thesis is that a multicomputer server stays balanced and
responsive *whatever the network throws at it* — "the environment can
change over time and SWEB cannot predict those changes" (§1).  The
generators in :mod:`generators` model cooperative browsers; this module
models the uncooperative rest of the Internet, in the spirit of the
load-skew attacks that motivate practical P2P/CDN balancing work.

Four actors, each a first-class workload builder returning a
:class:`~repro.workload.generators.Workload` plus the scenario-level
overrides the attack abuses:

* **hotspot** — a flood concentrated on the corpus's hottest few files,
  overwhelming their home node (the §4.2 skewed test, weaponized);
* **cachebust** — a permutation walk over the whole corpus that
  maximizes page-cache reuse distance, so every fetch misses and the
  disks thrash;
* **slowdrip** — slowloris-style clients behind a near-zero-bandwidth
  WAN path whose transfers occupy server connections for tens of
  seconds, starving the listen backlog;
* **dnsskew** — a single-resolver client population behind a long DNS
  TTL: the first round-robin answer is cached and every subsequent
  request lands on that one node, defeating rotation entirely.

Every actor mixes its attack stream into a plain background load so the
victim population's experience (p95, drops, balance) is measurable.
All randomness comes from registered :class:`~repro.sim.rng.RandomStreams`
substreams (``adv-*``), so adversarial workloads replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..cluster.network import WANPath
from ..sim import RandomStreams
from ..web.client import ClientProfile
from .corpus import Corpus
from .generators import Arrival, Workload, uniform_sampler
from .scenarios import DEFAULT_PROFILES

__all__ = [
    "ADVERSARIES",
    "AdversaryInfo",
    "BACKGROUND_CLIENT",
    "CHURN_CLIENT",
    "FLOOD_CLIENT",
    "SLOWDRIP_CLIENT",
    "adversary_names",
    "cachebust_workload",
    "dnsskew_workload",
    "hotspot_workload",
    "make_adversary",
    "slowdrip_workload",
]

#: The victim population's client name: every adversary mixes its
#: attack into a plain background carried by this client, so filtering
#: records on it isolates the bystanders' experience.
BACKGROUND_CLIENT = "ucsb"

#: The hotspot flood's botnet: campus-class connectivity, its own
#: resolver domain.  A distinct client name keeps the attack stream
#: separable from the victim population in the metrics.
FLOOD_CLIENT = ClientProfile(
    name="flood",
    wan=WANPath(latency=10e-3, bandwidth=4e6, name="flood-path"),
    domain="flood.invalid")

#: The cache-busting crawler population.
CHURN_CLIENT = ClientProfile(
    name="churn",
    wan=WANPath(latency=10e-3, bandwidth=4e6, name="churn-path"),
    domain="churn.invalid")

#: A slowloris-style browser: a long thin drip of bytes that holds a
#: server connection for tens of seconds per mid-sized (~1.5 MB) file.
SLOWDRIP_CLIENT = ClientProfile(
    name="slowdrip",
    wan=WANPath(latency=120e-3, bandwidth=6e4, name="drip-path"),
    domain="drip.invalid")

#: A large client population behind one caching resolver: every host
#: shares the first DNS answer for the whole TTL.
DNSSKEW_CLIENT = ClientProfile(
    name="dnsskew",
    wan=WANPath(latency=15e-3, bandwidth=2e6, name="skew-path"),
    domain="skew.invalid")


def _background(corpus: Corpus, rng: RandomStreams, rps: int,
                duration: float) -> list[Arrival]:
    """The victim population: a plain uniform burst load."""
    paths = uniform_sampler(corpus, rng)(rps * int(duration))
    return [Arrival(time=float(i // rps), path=path, client=BACKGROUND_CLIENT)
            for i, path in enumerate(paths)]


def hotspot_workload(corpus: Corpus, rng: RandomStreams, rps: int,
                     duration: float, intensity: float = 3.0,
                     hot_k: int = 2) -> tuple[Workload, dict[str, Any]]:
    """A flood aimed at the corpus's first ``hot_k`` files.

    The attack adds ``intensity * rps`` extra requests per second, all
    for the same tiny set of paths, so their home nodes saturate while
    the rest of the cluster idles — exactly the skew DNS rotation
    cannot repair.
    """
    if not 1 <= hot_k <= len(corpus.paths):
        raise ValueError(f"hot_k must be in 1..{len(corpus.paths)}, "
                         f"got {hot_k}")
    arrivals = _background(corpus, rng, rps, duration)
    paths = corpus.paths
    attack_per_sec = max(1, int(intensity * rps))
    for second in range(int(duration)):
        for _ in range(attack_per_sec):
            target = paths[rng.integers("adv-hotspot", 0, hot_k)]
            jitter = rng.uniform("adv-hotspot", 0.0, 0.25)
            arrivals.append(Arrival(time=float(second) + jitter,
                                    path=target, client="flood"))
    wl = Workload(name=f"adv-hotspot-{rps}rps-{int(duration)}s",
                  arrivals=arrivals, duration=float(duration))
    return wl, {"profiles": {**DEFAULT_PROFILES, "flood": FLOOD_CLIENT}}


def cachebust_workload(corpus: Corpus, rng: RandomStreams, rps: int,
                       duration: float, intensity: float = 1.0
                       ) -> tuple[Workload, dict[str, Any]]:
    """URL churn that defeats LRU: walk the corpus in a fresh random
    permutation each cycle, so reuse distance equals the corpus size and
    every page-cache lookup misses.
    """
    arrivals = _background(corpus, rng, rps, duration)
    paths = corpus.paths
    attack_per_sec = max(1, int(intensity * rps))
    order: list[str] = []
    for second in range(int(duration)):
        for _ in range(attack_per_sec):
            if not order:
                perm = rng.stream("adv-cachebust").permutation(len(paths))
                order = [paths[int(i)] for i in perm]
            jitter = rng.uniform("adv-cachebust", 0.0, 0.5)
            arrivals.append(Arrival(time=float(second) + jitter,
                                    path=order.pop(), client="churn"))
    wl = Workload(name=f"adv-cachebust-{rps}rps-{int(duration)}s",
                  arrivals=arrivals, duration=float(duration))
    return wl, {"profiles": {**DEFAULT_PROFILES, "churn": CHURN_CLIENT}}


def slowdrip_workload(corpus: Corpus, rng: RandomStreams, rps: int,
                      duration: float, intensity: float = 2.0
                      ) -> tuple[Workload, dict[str, Any]]:
    """Slowloris: drip-feed clients that hold connections open.

    Each attack request arrives over :data:`SLOWDRIP_CLIENT`'s ~15 KB/s
    pipe, so even a mid-sized file occupies a server connection for tens
    of simulated seconds; enough of them exhaust the listen backlog and
    the victim population sees connections refused.  The overrides
    install the drip profile into the scenario's client table.
    """
    arrivals = _background(corpus, rng, rps, duration)
    # the biggest file drips longest; pick targets from the largest few
    by_size = sorted(corpus.documents, key=lambda d: (-d.size, d.path))
    targets = [d.path for d in by_size[:max(1, len(by_size) // 4)]]
    attack_per_sec = max(1, int(intensity * rps))
    for second in range(int(duration)):
        for _ in range(attack_per_sec):
            path = targets[rng.integers("adv-slowdrip", 0, len(targets))]
            jitter = rng.uniform("adv-slowdrip", 0.0, 1.0)
            arrivals.append(Arrival(time=float(second) + jitter,
                                    path=path, client="slowdrip"))
    wl = Workload(name=f"adv-slowdrip-{rps}rps-{int(duration)}s",
                  arrivals=arrivals, duration=float(duration))
    return wl, {"profiles": {**DEFAULT_PROFILES,
                             "slowdrip": SLOWDRIP_CLIENT}}


def dnsskew_workload(corpus: Corpus, rng: RandomStreams, rps: int,
                     duration: float, intensity: float = 2.0
                     ) -> tuple[Workload, dict[str, Any]]:
    """DNS-cache skew abuse: one resolver, long TTL, many requests.

    The attack population shares a single caching resolver domain; with
    the overrides' long ``dns_ttl`` the first round-robin answer sticks
    for the whole run and *every* attack request lands on that one node.
    Round-robin's only balancing mechanism — rotation — never engages.
    """
    arrivals = _background(corpus, rng, rps, duration)
    attack_per_sec = max(1, int(intensity * rps))
    n = attack_per_sec * int(duration)
    # the attack's paths and jitters each come from a stream of their own
    paths = uniform_sampler(corpus, rng)(n)
    jitters = rng.uniform("adv-dnsskew", 0.0, 0.5, size=n).tolist()
    arrivals += [Arrival(time=float(i // attack_per_sec) + jitter,
                         path=path, client="dnsskew")
                 for i, (path, jitter) in enumerate(zip(paths, jitters))]
    wl = Workload(name=f"adv-dnsskew-{rps}rps-{int(duration)}s",
                  arrivals=arrivals, duration=float(duration))
    return wl, {"profiles": {**DEFAULT_PROFILES,
                             "dnsskew": DNSSKEW_CLIENT},
                "dns_ttl": 600.0, "hosts_per_profile": 1}


@dataclass(frozen=True)
class AdversaryInfo:
    """One registered adversary: metadata plus its workload builder."""

    name: str
    #: one-line attack description (rendered by docs and the CLI)
    summary: str
    #: which tier the attack stresses ("cache", "backlog", "dns", ...)
    stresses: str
    build: Callable[..., tuple[Workload, dict[str, Any]]]


#: name -> adversary, in canonical (documentation) order.
ADVERSARIES: dict[str, AdversaryInfo] = {a.name: a for a in (
    AdversaryInfo(
        name="hotspot",
        summary="flood the hottest files so their home nodes saturate",
        stresses="broker redirection + cooperative cache",
        build=hotspot_workload),
    AdversaryInfo(
        name="cachebust",
        summary="permutation-walk the corpus so every cache lookup misses",
        stresses="page-cache hit rate + disk bandwidth",
        build=cachebust_workload),
    AdversaryInfo(
        name="slowdrip",
        summary="slowloris drip connections that exhaust the backlog",
        stresses="listen backlog + graceful-degradation retries",
        build=slowdrip_workload),
    AdversaryInfo(
        name="dnsskew",
        summary="one cached resolver answer pins a flood to a single node",
        stresses="DNS rotation + load-aware redirection",
        build=dnsskew_workload),
)}


def adversary_names() -> tuple[str, ...]:
    """Every registered adversary name, in canonical order."""
    return tuple(ADVERSARIES)


def make_adversary(name: str, corpus: Corpus, rng: RandomStreams, *,
                   rps: int, duration: float,
                   intensity: float | None = None
                   ) -> tuple[Workload, dict[str, Any]]:
    """Build the named adversary's workload and scenario overrides.

    ``intensity`` scales the attack arrival rate relative to the
    background ``rps``; ``None`` keeps each actor's calibrated default.
    """
    info = ADVERSARIES.get(name)
    if info is None:
        raise KeyError(f"unknown adversary {name!r}; "
                       f"choose from {adversary_names()}")
    if intensity is None:
        return info.build(corpus, rng, rps, duration)
    return info.build(corpus, rng, rps, duration, intensity=intensity)
