"""Request-arrival generators.

The paper's load generator "simulat[es] the action of a graphical browser
such as Netscape where a number of simultaneous connections are made":
at each second of the test a constant number of requests is launched at
once.  Two durations are used — 30 s ("a non-trivial but limited burst")
and 120 s (the sustained-rate test).  Poisson and ramp generators are
provided for the examples and extensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Optional

from ..sim import RandomStreams
from .corpus import Corpus

__all__ = [
    "Arrival",
    "Workload",
    "burst_workload",
    "poisson_workload",
    "uniform_burst",
    "uniform_sampler",
    "zipf_sampler",
    "hot_file_sampler",
    "weighted_sampler",
]

PathSampler = Callable[[int], list[str]]
"""A path sampler: ``sampler(n)`` returns the next ``n`` request paths.

It asks each of its streams for all ``n`` draws in one call where the
stream draws one kind of value, so ``sampler(n)`` returns what ``n``
calls of ``sampler(1)`` return and leaves every stream where they leave
it.  ``sampler(0)`` draws nothing."""


class Arrival(NamedTuple):
    """One request arrival: when, what, and which client population."""

    time: float
    path: str
    client: str = "ucsb"   # key into the scenario's client-profile table


@dataclass
class Workload:
    """An ordered list of arrivals plus its bookkeeping."""

    name: str
    arrivals: list[Arrival] = field(default_factory=list)
    duration: float = 0.0       # nominal generation window, seconds

    def __post_init__(self) -> None:
        self.arrivals.sort(key=lambda a: a.time)

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self):
        return iter(self.arrivals)

    @property
    def offered_rps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return len(self.arrivals) / self.duration


# ----------------------------------------------------------------- samplers
def uniform_sampler(corpus: Corpus, rng: RandomStreams,
                    stream: str = "sampler") -> PathSampler:
    """Every document equally popular."""
    paths = corpus.paths
    if not paths:
        raise ValueError("corpus has no documents")

    def sample(n: int) -> list[str]:
        return [paths[i] for i in
                rng.integers(stream, 0, len(paths), size=n).tolist()]

    return sample


def zipf_sampler(corpus: Corpus, rng: RandomStreams, alpha: float = 1.0,
                 stream: str = "zipf", hot_set: Optional[int] = None,
                 tail_weight: float = 0.0) -> PathSampler:
    """Zipf-popular documents (web traffic's classic shape).

    ``hot_set`` confines the Zipf head to the corpus's first N paths —
    the knob the cooperative-cache experiment (X10) uses to engineer a
    working set bigger than one node's RAM but smaller than the
    cluster's.  ``tail_weight`` then sends that fraction of requests
    uniformly into the remaining cold tail (0.0 keeps every request in
    the hot set; requires a hot set smaller than the corpus).  The
    defaults reproduce the historical behaviour exactly — same stream,
    same draws.
    """
    paths = corpus.paths
    if not paths:
        raise ValueError("corpus has no documents")
    if hot_set is None:
        hot_set, tail_weight = len(paths), 0.0
    elif not 1 <= hot_set <= len(paths):
        raise ValueError(f"hot_set must be in 1..{len(paths)}, got {hot_set}")
    if not 0.0 <= tail_weight < 1.0:
        raise ValueError(f"tail_weight must be in [0, 1), got {tail_weight}")
    tail = len(paths) - hot_set
    if tail_weight > 0.0 and tail == 0:
        raise ValueError("tail_weight needs a cold tail "
                         "(hot_set < corpus size)")

    def sample(n: int) -> list[str]:
        if tail_weight == 0.0:
            return [paths[i] for i in rng.zipf_index(
                stream, hot_set, alpha=alpha, size=n).tolist()]
        # The tail stream draws a double and then, for a tail request,
        # an integer, so it goes one arrival at a time; -1 marks a hot
        # request, whose Zipf draws then come in one call.
        tail_gen = rng.stream(stream + "-tail")
        picks = [hot_set + int(tail_gen.integers(0, tail))
                 if tail_gen.random() < tail_weight else -1
                 for _ in range(n)]
        hot = iter(rng.zipf_index(stream, hot_set, alpha=alpha,
                                  size=picks.count(-1)).tolist())
        return [paths[next(hot) if i < 0 else i] for i in picks]

    return sample


def hot_file_sampler(path: str) -> PathSampler:
    """Everyone asks for the same file (the §4.2 skewed test)."""

    def sample(n: int) -> list[str]:
        return [path] * n

    return sample


def _check_weights(weights: list[float], what: str) -> None:
    """Raise unless every weight is finite and >= 0 and their sum is > 0."""
    if not all(0.0 <= w < math.inf for w in weights):
        raise ValueError(f"{what} weights must be finite and >= 0, "
                         f"got {weights}")
    if not sum(weights) > 0.0:
        raise ValueError(f"{what} weights must sum to > 0, got {weights}")


def weighted_sampler(choices: list[tuple[str, float]],
                     rng: RandomStreams,
                     stream: str = "weighted") -> PathSampler:
    """Explicit path popularity (used by the ADL example: thumbnails are
    requested far more often than full-resolution scans)."""
    if not choices:
        raise ValueError("no choices")
    paths = [p for p, _ in choices]
    weights = [w for _, w in choices]
    _check_weights(weights, "path")
    total = sum(weights)
    probs = [w / total for w in weights]

    def sample(n: int) -> list[str]:
        return rng.choice(stream, paths, p=probs, size=n)

    return sample


# ----------------------------------------------------------------- shapes
def burst_workload(rps: int, duration: float, sampler: PathSampler,
                   client: str = "ucsb", start: float = 0.0,
                   client_mix: Optional[list[tuple[str, float]]] = None,
                   rng: Optional[RandomStreams] = None) -> Workload:
    """The paper's generator: ``rps`` simultaneous requests at every
    second boundary for ``duration`` seconds.  A ``client_mix`` needs an
    ``rng`` and valid weights, checked up front even when ``duration``
    yields no arrivals."""
    if rps < 1:
        raise ValueError(f"rps must be >= 1, got {rps}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    n = rps * int(duration)
    clients: Iterable[str] = repeat(client, n)
    if client_mix is not None:
        if rng is None:
            raise ValueError("client_mix needs an rng")
        weights = [w for _, w in client_mix]
        _check_weights(weights, "client_mix")
        total = sum(weights)
        clients = rng.choice("client-mix", [name for name, _ in client_mix],
                             p=[w / total for w in weights], size=n)
    times = [start + float(i // rps) for i in range(n)]
    return Workload(name=f"burst-{rps}rps-{int(duration)}s",
                    arrivals=list(map(Arrival, times, sampler(n), clients)),
                    duration=float(duration))


def uniform_burst(corpus: Corpus, rps: int, duration: float) -> Workload:
    """The paper's burst over a uniformly popular corpus.

    Every paper cell draws its paths from this one stream: the sampler is
    seeded 42 whatever the run's seed, so a cell's seed moves the cluster,
    never the requests."""
    return burst_workload(rps, duration,
                          uniform_sampler(corpus, RandomStreams(seed=42)))


def poisson_workload(rate: float, duration: float, sampler: PathSampler,
                     rng: RandomStreams, client: str = "ucsb",
                     start: float = 0.0) -> Workload:
    """Memoryless arrivals at ``rate`` requests/second.

    The gaps are drawn one at a time, up to the first past the window
    (their count is not known before), then the paths in one call."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    times = []
    t = start
    while True:
        t += rng.exponential("poisson", 1.0 / rate)
        if t >= start + duration:
            break
        times.append(t)
    return Workload(name=f"poisson-{rate:g}rps-{int(duration)}s",
                    arrivals=[Arrival(t, path, client) for t, path
                              in zip(times, sampler(len(times)))],
                    duration=float(duration))
