"""Request-arrival generators.

The paper's load generator "simulat[es] the action of a graphical browser
such as Netscape where a number of simultaneous connections are made":
at each second of the test a constant number of requests is launched at
once.  Two durations are used — 30 s ("a non-trivial but limited burst")
and 120 s (the sustained-rate test).  Poisson and ramp generators are
provided for the examples and extensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

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

PathSampler = Callable[[], str]


@dataclass(frozen=True)
class Arrival:
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

    def sample() -> str:
        return paths[rng.integers(stream, 0, len(paths))]

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
        def sample() -> str:
            return paths[rng.zipf_index(stream, len(paths), alpha=alpha)]

        return sample
    if not 1 <= hot_set <= len(paths):
        raise ValueError(f"hot_set must be in 1..{len(paths)}, got {hot_set}")
    if not 0.0 <= tail_weight < 1.0:
        raise ValueError(f"tail_weight must be in [0, 1), got {tail_weight}")
    tail = len(paths) - hot_set
    if tail_weight > 0.0 and tail == 0:
        raise ValueError("tail_weight needs a cold tail "
                         "(hot_set < corpus size)")

    def sample_hot() -> str:
        if (tail_weight > 0.0
                and rng.uniform(stream + "-tail") < tail_weight):
            return paths[hot_set + rng.integers(stream + "-tail", 0, tail)]
        return paths[rng.zipf_index(stream, hot_set, alpha=alpha)]

    return sample_hot


def hot_file_sampler(path: str) -> PathSampler:
    """Everyone asks for the same file (the §4.2 skewed test)."""

    def sample() -> str:
        return path

    return sample


def weighted_sampler(choices: list[tuple[str, float]],
                     rng: RandomStreams,
                     stream: str = "weighted") -> PathSampler:
    """Explicit path popularity (used by the ADL example: thumbnails are
    requested far more often than full-resolution scans)."""
    if not choices:
        raise ValueError("no choices")
    paths = [p for p, _ in choices]
    total = sum(w for _, w in choices)
    if total <= 0:
        raise ValueError("weights must sum to > 0")
    probs = [w / total for _, w in choices]

    def sample() -> str:
        return rng.choice(stream, paths, p=probs)

    return sample


# ----------------------------------------------------------------- shapes
def burst_workload(rps: int, duration: float, sampler: PathSampler,
                   client: str = "ucsb", start: float = 0.0,
                   client_mix: Optional[list[tuple[str, float]]] = None,
                   rng: Optional[RandomStreams] = None) -> Workload:
    """The paper's generator: ``rps`` simultaneous requests at every
    second boundary for ``duration`` seconds.  A ``client_mix`` needs an
    ``rng``, checked up front even when ``duration`` yields no arrivals."""
    if rps < 1:
        raise ValueError(f"rps must be >= 1, got {rps}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if client_mix is not None:
        if rng is None:
            raise ValueError("client_mix needs an rng")
        names = [n for n, _ in client_mix]
        total = sum(w for _, w in client_mix)
        probs = [w / total for _, w in client_mix]
    arrivals = []
    for second in range(int(duration)):
        t = start + float(second)
        for _ in range(rps):
            who = client
            if client_mix is not None:
                who = rng.choice("client-mix", names, p=probs)
            arrivals.append(Arrival(time=t, path=sampler(), client=who))
    return Workload(name=f"burst-{rps}rps-{int(duration)}s",
                    arrivals=arrivals, duration=float(duration))


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
    """Memoryless arrivals at ``rate`` requests/second."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    arrivals = []
    t = start
    while True:
        t += rng.exponential("poisson", 1.0 / rate)
        if t >= start + duration:
            break
        arrivals.append(Arrival(time=t, path=sampler(), client=client))
    return Workload(name=f"poisson-{rate:g}rps-{int(duration)}s",
                    arrivals=arrivals, duration=float(duration))
