"""Randomized end-to-end configurations, reproducible from one seed.

A :class:`FuzzConfig` is a complete, JSON-serializable description of
one simulated deployment: topology (node count, homogeneous or
mixed-generation hardware), client-population model (per-client burst
or aggregate fluid), workload shape (uniform or Zipf, optionally
adversarial), fault plan (the CLI spec-string grammar), and the
cache/broker/mitigation knobs.  :func:`generate_config` draws every
field from registered :class:`~repro.sim.rng.RandomStreams` substreams
seeded by ``(root_seed, case_index)``, so the whole campaign — and any
single case — replays exactly from two integers, and a shrunk failing
case replays from its JSON alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Any, Optional

from ..faults import FaultPlan
from ..sched import fluid_policy_names, policy_names
from ..sim import RandomStreams
from ..workload import adversary_names

__all__ = [
    "FULL_PROFILE",
    "FUZZ_FORMAT",
    "FuzzConfig",
    "FuzzProfile",
    "SMOKE_PROFILE",
    "case_seed",
    "generate_config",
    "profile_by_name",
]

#: artifact format version stamped into replay JSON
FUZZ_FORMAT = 1


@dataclass(frozen=True)
class FuzzProfile:
    """Generation bounds: how big the drawn configurations may get."""

    name: str
    max_nodes: int = 5
    #: fluid-mode request-count range (inclusive)
    fluid_requests: tuple[int, int] = (4_000, 16_000)
    #: per-client-mode offered requests-per-second range (inclusive)
    rps: tuple[int, int] = (2, 5)
    #: per-client-mode run length range, seconds
    duration: tuple[float, float] = (4.0, 10.0)
    #: corpus size range (inclusive)
    n_files: tuple[int, int] = (24, 80)
    #: fraction of cases drawn on the fluid path
    fluid_fraction: float = 0.5
    #: fraction of per-client cases that get a fault plan
    fault_fraction: float = 0.45
    #: fraction of per-client cases driven by an adversary
    adversary_fraction: float = 0.4
    #: fraction of cases drawn on the multi-site geo path (docs/GEO.md)
    geo_fraction: float = 0.15


#: the CI gate: ~20 cases of this finish well under a minute
SMOKE_PROFILE = FuzzProfile(name="smoke")

#: overnight-campaign sizing
FULL_PROFILE = FuzzProfile(
    name="full", max_nodes=8, fluid_requests=(20_000, 80_000),
    rps=(4, 10), duration=(10.0, 25.0), n_files=(48, 160))

_PROFILES = {p.name: p for p in (SMOKE_PROFILE, FULL_PROFILE)}


def profile_by_name(name: str) -> FuzzProfile:
    """Look up a generation profile (``smoke`` or ``full``)."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown fuzz profile {name!r}; "
                       f"choose from {sorted(_PROFILES)}") from None


@dataclass(frozen=True)
class FuzzConfig:
    """One complete fuzz case: everything the executor needs, as data.

    Only JSON-native field types, so a failing case round-trips through
    ``--out``/``--replay`` artifacts losslessly.
    """

    case_id: str
    mode: str                     # "fluid" | "scenario" | "geo"
    seed: int                     # the simulation seed
    nodes: int
    policy: str
    heterogeneous: bool = False
    #: Zipf exponent for path popularity; None = uniform
    alpha: Optional[float] = None
    # -- fluid-path knobs --
    rate: float = 0.0             # offered requests/second
    n_requests: int = 0
    # -- per-client-path knobs --
    rps: int = 0
    duration: float = 0.0
    n_files: int = 0
    file_bytes: float = 0.0
    adversary: Optional[str] = None
    #: fault plan in the CLI spec-string grammar (docs/FAULTS.md)
    faults: Optional[str] = None
    graceful: bool = False
    coop_cache: bool = False
    replicate: bool = False
    dns_ttl: float = 0.0
    hosts_per_profile: int = 1
    # -- geo-path knobs (mode == "geo" only; docs/GEO.md) --
    #: total site count (origin + edges), 1..3; 0 = not a geo case
    geo_sites: int = 0
    #: one origin<->edge WAN latency per edge site, seconds
    geo_edge_latencies: tuple[float, ...] = ()
    geo_wan_bandwidth: float = 0.0
    #: per-edge replica RAM budget, MB (0 = never cache at the edge)
    geo_budget_mb: float = 0.0

    # -- validation -------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` unless the tuple describes a runnable case."""
        if self.mode not in ("fluid", "scenario", "geo"):
            raise ValueError(f"mode must be 'fluid', 'scenario' or 'geo', "
                             f"got {self.mode!r}")
        if self.mode != "geo" and (
                self.geo_sites or self.geo_edge_latencies
                or self.geo_wan_bandwidth or self.geo_budget_mb):
            raise ValueError("geo knobs are set on a non-geo case")
        if self.nodes < 2:
            raise ValueError(f"need >= 2 nodes, got {self.nodes}")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.replicate and not self.coop_cache:
            raise ValueError("replicate requires coop_cache")
        if self.dns_ttl < 0:
            raise ValueError(f"negative dns_ttl: {self.dns_ttl}")
        if self.hosts_per_profile < 1:
            raise ValueError(
                f"hosts_per_profile must be >= 1, got {self.hosts_per_profile}")
        if self.mode == "geo":
            if not 1 <= self.geo_sites <= 3:
                raise ValueError(
                    f"geo case needs 1..3 sites, got {self.geo_sites}")
            if len(self.geo_edge_latencies) != self.geo_sites - 1:
                raise ValueError(
                    f"{self.geo_sites} sites need "
                    f"{self.geo_sites - 1} edge latencies, got "
                    f"{len(self.geo_edge_latencies)}")
            if any(latency < 0 for latency in self.geo_edge_latencies):
                raise ValueError(
                    f"negative WAN latency: {self.geo_edge_latencies}")
            if self.geo_wan_bandwidth <= 0:
                raise ValueError(
                    f"geo case needs WAN bandwidth > 0, "
                    f"got {self.geo_wan_bandwidth}")
            if self.geo_budget_mb < 0:
                raise ValueError(
                    f"negative geo budget: {self.geo_budget_mb}")
            if self.rps < 1 or self.duration <= 0:
                raise ValueError(
                    f"geo case needs rps >= 1 and duration > 0, "
                    f"got rps={self.rps}, duration={self.duration}")
            if self.n_files < 1 or self.file_bytes <= 0:
                raise ValueError(
                    f"geo case needs a corpus, got n_files={self.n_files}, "
                    f"file_bytes={self.file_bytes}")
            if self.adversary is not None or self.faults is not None:
                raise ValueError("adversaries and fault plans run on the "
                                 "per-client path only")
            if self.coop_cache or self.replicate or self.heterogeneous:
                raise ValueError("geo cases draw homogeneous sites with "
                                 "the intra-site cache knobs off")
            return
        if self.mode == "fluid":
            if self.policy not in fluid_policy_names():
                raise ValueError(f"{self.policy!r} is not a fluid policy")
            if self.rate <= 0 or self.n_requests < 1:
                raise ValueError(
                    f"fluid case needs rate > 0 and n_requests >= 1, "
                    f"got rate={self.rate}, n_requests={self.n_requests}")
            if self.adversary is not None or self.faults is not None:
                raise ValueError("adversaries and fault plans run on the "
                                 "per-client path only")
            return
        if self.policy not in policy_names():
            raise ValueError(f"{self.policy!r} is not a per-client policy")
        if self.rps < 1 or self.duration <= 0:
            raise ValueError(f"scenario case needs rps >= 1 and duration > 0, "
                             f"got rps={self.rps}, duration={self.duration}")
        if self.n_files < 1 or self.file_bytes <= 0:
            raise ValueError(
                f"scenario case needs a corpus, got n_files={self.n_files}, "
                f"file_bytes={self.file_bytes}")
        if self.adversary is not None and self.adversary not in adversary_names():
            raise ValueError(f"unknown adversary {self.adversary!r}")
        if self.faults is not None:
            FaultPlan.parse(self.faults).validate(self.nodes)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FuzzConfig":
        data = dict(data)
        if "geo_edge_latencies" in data:  # JSON round-trips tuples as lists
            data["geo_edge_latencies"] = tuple(data["geo_edge_latencies"])
        config = cls(**data)
        config.validate()
        return config

    def simplified(self, **changes: Any) -> "FuzzConfig":
        """A copy with ``changes`` applied (the shrinker's edit step)."""
        return replace(self, **changes)


def case_seed(root_seed: int, index: int) -> int:
    """The per-case master seed: a deterministic mix of campaign seed
    and case index, so cases are independent yet individually
    re-derivable."""
    if index < 0:
        raise ValueError(f"negative case index: {index}")
    return (root_seed * 1_000_003 + index * 7_919 + 11) % (2 ** 63)


def _draw_faults(rng: RandomStreams, nodes: int, duration: float) -> str:
    """One or two fault clauses, windows inside the run."""
    clauses = []
    for _ in range(1 + rng.integers("fuzz-faults", 0, 2)):
        kind = rng.choice(
            "fuzz-faults",
            ["crash", "slowdisk", "mute", "partition", "corrupt"])
        start = round(rng.uniform("fuzz-faults", 0.2, 0.5) * duration, 2)
        end = round(rng.uniform("fuzz-faults", 0.6, 0.95) * duration, 2)
        node = rng.integers("fuzz-faults", 0, nodes)
        if kind == "partition":
            clauses.append(f"partition:{start}-{end}")
        elif kind == "slowdisk":
            factor = 2 + rng.integers("fuzz-faults", 0, 5)
            clauses.append(f"slowdisk:n{node}@{start}-{end}x{factor}")
        elif kind == "corrupt":
            clauses.append(f"corrupt:n{node}@{start}-{end}x0")
        else:   # crash (with restart) / mute
            clauses.append(f"{kind}:n{node}@{start}-{end}")
    return ",".join(clauses)


def _generate_geo_config(rng: RandomStreams, case_id: str) -> FuzzConfig:
    """Draw one multi-site case: topology, link matrix and budget all
    come from the ``fuzz-geo`` substream (docs/GEO.md)."""
    sites = 1 + int(rng.integers("fuzz-geo", 0, 3))
    latencies = tuple(round(rng.uniform("fuzz-geo", 0.01, 0.12), 4)
                      for _ in range(sites - 1))
    bandwidth = round(rng.uniform("fuzz-geo", 2e6, 16e6), 1)
    budget_mb = float(rng.choice("fuzz-geo", [0.0, 1.0, 4.0, 16.0]))
    config = FuzzConfig(
        case_id=case_id, mode="geo",
        seed=int(rng.integers("fuzz-geo", 1, 1_000_000)),
        nodes=int(rng.integers("fuzz-geo", 2, 5)),
        policy="sweb",
        alpha=round(rng.uniform("fuzz-geo", 0.8, 1.3), 3),
        rps=int(rng.integers("fuzz-geo", 8, 21)),
        duration=round(rng.uniform("fuzz-geo", 3.0, 7.0), 1),
        n_files=int(rng.integers("fuzz-geo", 16, 49)),
        file_bytes=float(round(math.exp(
            rng.uniform("fuzz-geo", math.log(2e4), math.log(1e5))))),
        graceful=rng.uniform("fuzz-geo") < 0.5,
        geo_sites=sites, geo_edge_latencies=latencies,
        geo_wan_bandwidth=bandwidth, geo_budget_mb=budget_mb)
    config.validate()
    return config


def generate_config(root_seed: int, index: int,
                    profile: FuzzProfile = SMOKE_PROFILE) -> FuzzConfig:
    """Draw case ``index`` of the campaign seeded by ``root_seed``."""
    rng = RandomStreams(seed=case_seed(root_seed, index))
    case_id = f"fuzz-s{root_seed}-c{index:04d}"
    # The geo decision and every geo draw live on their own substream so
    # adding the dimension left all pre-geo case draws untouched.
    if rng.uniform("fuzz-geo") < profile.geo_fraction:
        return _generate_geo_config(rng, case_id)
    fluid = rng.uniform("fuzz-shape") < profile.fluid_fraction
    nodes = int(rng.integers("fuzz-shape", 2, profile.max_nodes + 1))
    heterogeneous = rng.uniform("fuzz-shape") < 0.5
    sim_seed = int(rng.integers("fuzz-shape", 1, 1_000_000))

    zipf = rng.uniform("fuzz-workload") < 0.6
    alpha = round(rng.uniform("fuzz-workload", 0.6, 1.2), 3) if zipf else None

    if fluid:
        policy = rng.choice("fuzz-shape", list(fluid_policy_names()))
        lo, hi = profile.fluid_requests
        n_requests = int(rng.integers("fuzz-workload", lo, hi + 1))
        rate = round(nodes * rng.uniform("fuzz-workload", 300.0, 900.0), 1)
        config = FuzzConfig(case_id=case_id, mode="fluid", seed=sim_seed,
                            nodes=nodes, policy=policy,
                            heterogeneous=heterogeneous, alpha=alpha,
                            rate=rate, n_requests=n_requests)
        config.validate()
        return config

    policy = rng.choice("fuzz-shape", list(policy_names()))
    rps = int(rng.integers("fuzz-workload", profile.rps[0],
                           profile.rps[1] + 1))
    duration = round(rng.uniform("fuzz-workload", *profile.duration), 1)
    n_files = int(rng.integers("fuzz-workload", profile.n_files[0],
                               profile.n_files[1] + 1))
    file_bytes = float(round(math.exp(
        rng.uniform("fuzz-workload", math.log(1e4), math.log(4e5)))))
    adversary: Optional[str] = None
    if rng.uniform("fuzz-workload") < profile.adversary_fraction:
        adversary = rng.choice("fuzz-workload", list(adversary_names()))
    faults: Optional[str] = None
    if rng.uniform("fuzz-faults") < profile.fault_fraction:
        faults = _draw_faults(rng, nodes, duration)

    graceful = rng.uniform("fuzz-knobs") < 0.5
    coop_cache = rng.uniform("fuzz-knobs") < 0.4
    replicate = coop_cache and rng.uniform("fuzz-knobs") < 0.4
    dns_ttl = float(rng.choice("fuzz-knobs", [0.0, 0.0, 60.0, 600.0]))
    hosts = int(rng.integers("fuzz-knobs", 1, 5))

    config = FuzzConfig(case_id=case_id, mode="scenario", seed=sim_seed,
                        nodes=nodes, policy=policy,
                        heterogeneous=heterogeneous, alpha=alpha,
                        rps=rps, duration=duration, n_files=n_files,
                        file_bytes=file_bytes, adversary=adversary,
                        faults=faults, graceful=graceful,
                        coop_cache=coop_cache, replicate=replicate,
                        dns_ttl=dns_ttl, hosts_per_profile=hosts)
    config.validate()
    return config
