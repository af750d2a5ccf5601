"""Aggregate (fluid) client-population model for million-request runs.

The per-client simulation path (``repro.web.Client`` + the full httpd
stack) spawns several kernel processes and dozens of events per request
— faithful, but topping out around a few thousand requests per second
of wall time.  The paper's claim is *scalability*, and the cluster-
scheduling literature evaluates policies at 10^5–10^6 task scale, so
this module trades protocol fidelity for throughput: **one** simulator
process drives a Poisson arrival *stream* whose per-request state lives
in array-backed records, and the cluster is modelled as fluid queues —
per-node virtual busy-clocks advanced analytically, no per-request
kernel events.

What is kept from the full model (see ``docs/SCALING.md`` for the full
assumption table):

* two-stage assignment — round-robin DNS picks a home node, then a
  broker argmin over estimated completion times re-routes with a
  redirection penalty when another node would finish sooner;
* Zipf(alpha) path popularity with a RAM-hot head: the ``hot_set``
  most popular paths are served at memory bandwidth, the tail at disk
  bandwidth (the cooperative-cache steady state);
* deterministic named RNG substreams, so a (scenario, seed) pair is
  exactly replayable and fingerprintable.

What is deliberately dropped: connection handshakes, HTTP parsing,
retries/faults, loadd staleness (the fluid broker sees true queue
state), and per-transfer bandwidth sharing (FIFO service instead of
processor sharing).  Arrival batches are drawn vectorised with numpy;
the only per-request work is the queue update, which is why a million
requests complete in seconds (``sweb-repro bench --scale L``).
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..obs import LATENCY_BUCKETS, MetricsRegistry
from ..sched import SpeedFactors, fluid_policy_names, rank_preferences
from ..sim import RandomStreams, Simulator

__all__ = ["FluidRecords", "FluidResult", "FluidScenario", "run_fluid"]


@dataclass(frozen=True)
class FluidScenario:
    """One fluid-model experimental cell: population, corpus and cluster.

    Defaults describe a modern-hardware regime near (but below) cluster
    saturation rather than the paper's 1996 testbeds — the fluid model
    exists to explore request volumes the testbeds could never see; the
    faithful constants stay with the per-client path.
    """

    name: str = "fluid"
    #: number of server nodes (fluid queues)
    nodes: int = 6
    #: offered Poisson arrival rate, requests per simulated second
    rate: float = 2000.0
    #: total requests in the run
    n_requests: int = 100_000
    #: corpus size; path popularity is Zipf(alpha) over ranks 0..n_paths-1
    n_paths: int = 512
    #: Zipf exponent; None = uniform popularity
    alpha: Optional[float] = 1.0
    seed: int = 1
    #: mean document size (sizes are exponential around it, per path)
    mean_file_bytes: float = 2e4
    #: the hot head: this many top-ranked paths are served from RAM
    hot_set: int = 32
    #: fixed per-request CPU cost, seconds (accept + parse + dispatch)
    t_cpu: float = 7e-4
    #: client-visible penalty when the broker moves a request off its
    #: DNS home node (the 302 round trip, fluid-sized)
    t_redirect: float = 4e-4
    #: disk and RAM service bandwidths, bytes/second
    disk_bps: float = 5e7
    mem_bps: float = 4e8
    #: arrivals generated (and bucketed) this many at a time.  Part of
    #: the cell identity: regrouping the arrival cumsum moves float
    #: rounding at the ULP level, so two runs are bit-identical only at
    #: the same batch (docs/SCALING.md)
    batch: int = 65_536
    #: which decision kernel routes requests — any name in
    #: ``repro.sched.fluid_policy_names()`` (docs/SCHEDULING.md)
    policy: str = "sweb"
    #: optional per-node speed multipliers on the homogeneous baseline
    #: (the :class:`repro.sched.SpeedFactors` model applied to analytic
    #: service times); ``None`` = homogeneous.  Lengths must equal
    #: ``nodes``.  ``cpu_factors`` scales the fixed CPU cost,
    #: ``disk_factors`` the tail (disk) bandwidth, ``mem_factors`` the
    #: hot-set (RAM) bandwidth.
    cpu_factors: Optional[tuple[float, ...]] = None
    disk_factors: Optional[tuple[float, ...]] = None
    mem_factors: Optional[tuple[float, ...]] = None

    @property
    def heterogeneous(self) -> bool:
        """True when any per-node speed factors are supplied."""
        return (self.cpu_factors is not None
                or self.disk_factors is not None
                or self.mem_factors is not None)

    def with_seed(self, seed: int) -> "FluidScenario":
        """The same cell at a different seed (grid helper)."""
        return replace(self, seed=seed)

    def with_speed_factors(self, factors: SpeedFactors) -> "FluidScenario":
        """The same cell on a heterogeneous cluster (tournament helper)."""
        return replace(self, cpu_factors=factors.cpu,
                       disk_factors=factors.disk, mem_factors=factors.mem)

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed cell."""
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        # NaN slips past every comparison below (a NaN rate runs to a NaN
        # finish, a NaN redirect penalty never redirects), and an
        # infinite cost or bandwidth prices nothing real.
        for name in ("rate", "t_cpu", "t_redirect", "mean_file_bytes",
                     "disk_bps", "mem_bps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, "
                             f"got {self.n_requests}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 0 <= self.hot_set <= self.n_paths:
            raise ValueError(f"hot_set must be in 0..{self.n_paths}, "
                             f"got {self.hot_set}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        # A negative cost or bandwidth gives negative service times, a zero
        # bandwidth infinite ones, and a negative redirect penalty makes
        # the broker prefer moving.
        for name in ("t_cpu", "t_redirect", "mean_file_bytes"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        for name in ("disk_bps", "mem_bps"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.alpha is not None and self.alpha < 0:
            raise ValueError(f"alpha must be >= 0 (or None), "
                             f"got {self.alpha}")
        if self.policy not in fluid_policy_names():
            raise ValueError(f"unknown fluid policy {self.policy!r}; "
                             f"choose from {fluid_policy_names()}")
        for kind, factors in (("cpu_factors", self.cpu_factors),
                              ("disk_factors", self.disk_factors),
                              ("mem_factors", self.mem_factors)):
            if factors is None:
                continue
            if len(factors) != self.nodes:
                raise ValueError(f"{kind} must have one entry per node "
                                 f"({self.nodes}), got {len(factors)}")
            if any(f <= 0 for f in factors):
                raise ValueError(f"{kind} must be > 0, got {factors}")


class FluidRecords:
    """Column-oriented per-request records (``array``-backed).

    One entry per request: arrival time, client-observed latency, the
    serving node, the requested path's popularity rank, and whether the
    broker moved it off its DNS home.  ~21 bytes per request instead of
    a boxed object — a million requests fit in ~21 MB.
    """

    __slots__ = ("arrivals", "latencies", "nodes", "path_ranks",
                 "redirected")

    def __init__(self) -> None:
        self.arrivals = array("d")
        self.latencies = array("d")
        self.nodes = array("i")
        self.path_ranks = array("i")
        self.redirected = array("b")

    def __len__(self) -> int:
        return len(self.arrivals)


@dataclass
class FluidResult:
    """Outcome of one :func:`run_fluid` call."""

    scenario: FluidScenario
    #: per-request columns (None when ``keep_records=False``)
    records: Optional[FluidRecords]
    #: per-process metrics registry the run published into
    registry: MetricsRegistry
    #: sha256 over every per-request outcome, streamed batch by batch —
    #: identical for identical (scenario, seed) regardless of process,
    #: shard assignment or record retention
    fingerprint: str
    #: simulated time of the last request completion
    finished_at: float
    #: kernel events processed (a handful per batch, not per request)
    event_count: int
    n_requests: int = 0
    redirected: int = 0
    served: list[int] = field(default_factory=list)

    def snapshot(self) -> dict:
        """The registry snapshot (the mergeable per-shard artifact)."""
        return self.registry.snapshot()

    def summary_line(self) -> str:
        """One-line headline, mirroring ``ScenarioResult.summary_line``."""
        hist = self.registry.histogram("fluid.latency_s")
        return (f"{self.scenario.name}: offered={self.scenario.rate:.0f} rps, "
                f"completed={self.n_requests}, "
                f"redirected={self.redirected / max(1, self.n_requests):.1%}, "
                f"mean_rt={hist.mean:.4f}s")


def _service_tables(
        scenario: FluidScenario, rng: RandomStreams,
) -> "tuple[list[float], Optional[list[list[float]]]]":
    """Baseline per-path service times, plus per-node tables when
    heterogeneous.

    The baseline list is computed with *exactly* the homogeneous
    arithmetic (one ``fluid-sizes`` draw, one vectorised expression) so
    homogeneous runs keep their historical fingerprints.  On a
    heterogeneous scenario the second element holds one list per node:
    ``by_node[j][rank]`` prices the CPU cost at ``cpu_factors[j]`` and
    the transfer at the node's own RAM/disk bandwidth factor.
    """
    gen = rng.stream("fluid-sizes")
    sizes = gen.exponential(scenario.mean_file_bytes,
                            size=scenario.n_paths)
    rates = np.full(scenario.n_paths, scenario.disk_bps)
    rates[:scenario.hot_set] = scenario.mem_bps
    service = (scenario.t_cpu + sizes / rates).tolist()
    if not scenario.heterogeneous:
        return service, None
    n = scenario.nodes
    cpu_f = scenario.cpu_factors or (1.0,) * n
    disk_f = scenario.disk_factors or (1.0,) * n
    mem_f = scenario.mem_factors or (1.0,) * n
    hot = np.zeros(scenario.n_paths, dtype=bool)
    hot[:scenario.hot_set] = True
    by_node = []
    for j in range(n):
        medium = np.where(hot, mem_f[j], disk_f[j])
        by_node.append(
            (scenario.t_cpu / cpu_f[j] + sizes / (rates * medium)).tolist())
    return service, by_node


def _make_stepper(scenario: FluidScenario, rng: RandomStreams,
                  service: "list[float]",
                  service_by: "Optional[list[list[float]]]",
                  busy: "list[float]", served: "list[int]"):
    """Build the per-batch decision kernel for ``scenario.policy``.

    Each policy's loop only decides: for every request it picks the
    serving node ``best``, advances that node's busy clock, and writes
    the node and its finish time.  One numpy pass per batch (``step``
    below) then does what every policy shares: the round-robin DNS home
    of each request, whether the policy moved it off that home, its
    latency (finish minus arrival, plus ``t_redirect`` when moved), the
    redirect flags and the per-node ``served`` counts.  The DNS cursor
    and any policy-private state (queue deques, extra RNG substreams,
    hash preference tables) live in the closure, carried across batches.
    Homogeneous cells pass ``service_by=None``, and every node then
    prices from the one ``service`` table.

    The homogeneous ``sweb`` loop decides the broker argmin without
    pricing every node.  A non-home node scores ``(max(b_j, a) + s) +
    t_redirect``, which never falls as its busy clock ``b_j`` grows, and
    only a strictly lower score moves a request.  So an idle home keeps
    it, a home holding ``min(busy)`` keeps it, and otherwise the score at
    the least busy clock, computed with the same expression, decides:
    unless it beats the home's, the home keeps the request, and if it
    does, the first other node in order that reaches it takes the
    request.  The ``jsq`` scan stops at the first empty queue, since no
    count is lower.  Both make the same choices, with the same floats,
    as a scan of every node; ``tests/test_fluid_oracle.py`` checks them
    against those scans, kept in ``tests/fluid_reference.py``;
    ``tests/test_sched_policies.py`` pins every policy's fingerprint and
    ``tests/test_policy_goldens.py`` pins them across batch boundaries.
    New policies draw only from *new* named substreams (``fluid-po2``,
    ``fluid-choice``), which never perturbs the arrival/path/size draws
    of existing runs.
    """
    n_nodes = scenario.nodes
    t_redirect = scenario.t_redirect
    node_range = range(n_nodes)
    policy = scenario.policy
    by_node = service_by or [service] * n_nodes

    # Every pick(m, arr_list, rank_list, homes, node_col, fin) below
    # fills node_col[i] and fin[i] (the finish time) for i < m.
    if policy == "sweb" and not scenario.heterogeneous:
        def pick(m, arr_list, rank_list, homes, node_col, fin):
            for i in range(m):
                a = arr_list[i]
                s = service[rank_list[i]]
                best = home = homes[i]
                # Broker argmin over estimated completions; moving off
                # the DNS home node costs the redirect penalty.  Scores
                # never fall as busy clocks grow, so the least busy
                # clock prices the best move (see the docstring).
                b = busy[home]
                if b > a:
                    lo = min(busy)
                    if lo != b:
                        target = (lo if lo > a else a) + s + t_redirect
                        if target < b + s:
                            for j in node_range:
                                if j != home:
                                    b = busy[j]
                                    if ((b if b > a else a) + s + t_redirect
                                            == target):
                                        best = j
                                        break
                b = busy[best]
                busy[best] = fin[i] = (b if b > a else a) + s
                node_col[i] = best

    elif policy == "sweb":
        # Heterogeneous SWEB: same argmin, but each candidate is priced
        # at its own node's service time (fast nodes win more requests).
        def pick(m, arr_list, rank_list, homes, node_col, fin):
            for i in range(m):
                a = arr_list[i]
                rank = rank_list[i]
                best = home = homes[i]
                b = busy[home]
                best_score = (b if b > a else a) + by_node[home][rank]
                for j in node_range:
                    if j == home:
                        continue
                    b = busy[j]
                    score = ((b if b > a else a) + by_node[j][rank]
                             + t_redirect)
                    if score < best_score:
                        best_score = score
                        best = j
                b = busy[best]
                busy[best] = fin[i] = (b if b > a else a) + by_node[best][rank]
                node_col[i] = best

    elif policy == "round-robin":
        def pick(m, arr_list, rank_list, homes, node_col, fin):
            for i in range(m):
                a = arr_list[i]
                home = homes[i]
                b = busy[home]
                busy[home] = fin[i] = ((b if b > a else a)
                                       + by_node[home][rank_list[i]])
                node_col[i] = home

    elif policy == "random":
        choice_gen = rng.stream("fluid-choice")

        def pick(m, arr_list, rank_list, homes, node_col, fin):
            choices = choice_gen.integers(0, n_nodes, size=m).tolist()
            for i in range(m):
                a = arr_list[i]
                best = choices[i]
                b = busy[best]
                busy[best] = fin[i] = ((b if b > a else a)
                                       + by_node[best][rank_list[i]])
                node_col[i] = best

    elif policy in ("jsq", "po2"):
        # Per-node FIFO queues of finish times: finishes are appended in
        # nondecreasing order (busy clocks only advance), so draining
        # the front past the arrival instant is amortised O(1) and
        # len(queue) is the exact in-service job count.
        queues = [deque() for _ in node_range]
        po2_gen = rng.stream("fluid-po2") if policy == "po2" else None

        def _count(j, a):
            q = queues[j]
            while q and q[0] <= a:
                q.popleft()
            return len(q)

        def _finish_on(j, a, rank):
            b = busy[j]
            busy[j] = finish = (b if b > a else a) + by_node[j][rank]
            queues[j].append(finish)
            return finish

        if policy == "jsq":
            def pick(m, arr_list, rank_list, homes, node_col, fin):
                for i in range(m):
                    a = arr_list[i]
                    # Nothing beats an empty queue, so the scan stops at
                    # the first one; the drains it skips are lazy and a
                    # later _count (arrivals never decrease) catches up.
                    best = home = homes[i]
                    best_count = _count(home, a)
                    if best_count:
                        for j in node_range:
                            if j == home:
                                continue
                            c = _count(j, a)
                            if c < best_count:
                                best_count = c
                                best = j
                                if not c:
                                    break
                    fin[i] = _finish_on(best, a, rank_list[i])
                    node_col[i] = best
        else:
            def pick(m, arr_list, rank_list, homes, node_col, fin):
                if n_nodes == 1:
                    first = [0] * m
                    second = [0] * m
                else:
                    first = po2_gen.integers(0, n_nodes, size=m).tolist()
                    second = po2_gen.integers(0, n_nodes - 1,
                                              size=m).tolist()
                for i in range(m):
                    a = arr_list[i]
                    x = first[i]
                    y = second[i]
                    if y >= x:   # second sample drawn over the other n-1
                        y += 1 if n_nodes > 1 else 0
                    best = y if _count(y, a) < _count(x, a) else x
                    fin[i] = _finish_on(best, a, rank_list[i])
                    node_col[i] = best

    elif policy == "lwl":
        def pick(m, arr_list, rank_list, homes, node_col, fin):
            for i in range(m):
                a = arr_list[i]
                # Outstanding work in seconds; busy clocks already run
                # in each node's own time, so the comparison is speed-
                # normalised for free on heterogeneous clusters.
                best = home = homes[i]
                w = busy[home] - a
                best_w = w if w > 0.0 else 0.0
                for j in node_range:
                    if j == home:
                        continue
                    w = busy[j] - a
                    if w < 0.0:
                        w = 0.0
                    if w < best_w:
                        best_w = w
                        best = j
                b = busy[best]
                busy[best] = fin[i] = ((b if b > a else a)
                                       + by_node[best][rank_list[i]])
                node_col[i] = best

    elif policy == "chash":
        prefs = rank_preferences(scenario.n_paths, n_nodes)
        inv_n = 1.0 / n_nodes

        def pick(m, arr_list, rank_list, homes, node_col, fin):
            for i in range(m):
                a = arr_list[i]
                rank = rank_list[i]
                order = prefs[rank]
                total_w = 0.0
                for j in node_range:
                    w = busy[j] - a
                    if w > 0.0:
                        total_w += w
                mean_w = total_w * inv_n
                # Bounded load: the owner keeps the request unless its
                # backlog exceeds twice the cluster mean plus the
                # request itself; then walk the spill order.
                best = order[0]
                for j in order:
                    w = busy[j] - a
                    if w < 0.0:
                        w = 0.0
                    if w <= 2.0 * mean_w + by_node[j][rank]:
                        best = j
                        break
                b = busy[best]
                busy[best] = fin[i] = (b if b > a else a) + by_node[best][rank]
                node_col[i] = best

    else:
        raise ValueError(f"no fluid stepper for policy {policy!r}")

    rr = 0  # round-robin DNS cursor, carried across batches

    def step(m, arr_list, rank_list, lat, node_col, red_col):
        nonlocal rr
        homes = (rr + np.arange(m)) % n_nodes
        rr = (rr + m) % n_nodes
        pick(m, arr_list, rank_list, homes.tolist(), node_col, lat)
        nodes = np.frombuffer(node_col, dtype=np.intc)
        moved = nodes != homes
        latency = np.frombuffer(lat, dtype=np.float64)
        latency -= arr_list             # finish -> finish - arrival
        np.add(latency, t_redirect, out=latency, where=moved)
        np.frombuffer(red_col, dtype=np.int8)[:] = moved
        counts = np.bincount(nodes, minlength=n_nodes).tolist()
        for j in node_range:
            served[j] += counts[j]
        return int(np.count_nonzero(moved))
    return step


def _popularity_cdf(scenario: FluidScenario) -> Optional[np.ndarray]:
    """CDF over path ranks for inverse-transform sampling (None=uniform)."""
    if scenario.alpha is None:
        return None
    ranks = np.arange(1, scenario.n_paths + 1, dtype=float)
    weights = ranks ** (-float(scenario.alpha))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def run_fluid(scenario: FluidScenario,
              registry: Optional[MetricsRegistry] = None,
              keep_records: bool = True) -> FluidResult:
    """Run one fluid-population cell to completion.

    One simulator process advances batch by batch: numpy draws a batch
    of Poisson arrivals and Zipf path ranks, a ``sim.timeout`` jumps the
    kernel clock to the batch end, a tight scalar loop applies the
    two-stage assignment to per-node busy-clocks, and one numpy pass
    derives the batch's latencies and redirects.  Metrics go into
    ``registry`` under the ``fluid.*`` namespace (histogram
    ``fluid.latency_s`` on the shared ``LATENCY_BUCKETS``), and a
    streaming sha256 fingerprints every outcome for the shard runner's
    determinism checks.
    """
    scenario.validate()
    registry = registry if registry is not None else MetricsRegistry()
    rng = RandomStreams(seed=scenario.seed)
    service, service_by = _service_tables(scenario, rng)
    cdf = _popularity_cdf(scenario)
    arrivals_gen = rng.stream("fluid-arrivals")
    paths_gen = rng.stream("fluid-paths")
    bounds = np.asarray(LATENCY_BUCKETS)

    n_nodes = scenario.nodes
    busy = [0.0] * n_nodes
    served = [0] * n_nodes
    step = _make_stepper(scenario, rng, service, service_by, busy, served)
    records = FluidRecords() if keep_records else None
    digest = hashlib.sha256()
    bucket_counts = np.zeros(len(bounds) + 1, dtype=np.int64)
    totals = {"latency_sum": 0.0, "lat_min": float("inf"),
              "lat_max": float("-inf"), "redirected": 0}

    sim = Simulator()

    def driver():  # noqa: ANN202 - kernel process generator
        clock = 0.0
        remaining = scenario.n_requests
        while remaining > 0:
            m = min(scenario.batch, remaining)
            remaining -= m
            gaps = arrivals_gen.exponential(1.0 / scenario.rate, size=m)
            arrivals = np.cumsum(gaps) + clock
            clock = float(arrivals[-1])
            if cdf is None:
                ranks = paths_gen.integers(0, scenario.n_paths, size=m)
            else:
                ranks = np.searchsorted(cdf, paths_gen.random(m),
                                        side="right")
            # Jump the kernel to the batch horizon: the only events this
            # model schedules are one timeout per batch.
            if clock > sim.now:
                yield sim.timeout(clock - sim.now)

            arr_list = arrivals.tolist()
            rank_list = ranks.tolist()
            lat = array("d", bytes(8 * m))
            node_col = array("i", bytes(4 * m))
            red_col = array("b", bytes(m))
            redirected = step(m, arr_list, rank_list, lat, node_col, red_col)

            lat_np = np.frombuffer(lat, dtype=np.float64)
            bucket_counts[:] += np.bincount(
                np.searchsorted(bounds, lat_np, side="left"),
                minlength=len(bounds) + 1)
            totals["latency_sum"] += float(lat_np.sum())
            totals["lat_min"] = min(totals["lat_min"], float(lat_np.min()))
            totals["lat_max"] = max(totals["lat_max"], float(lat_np.max()))
            totals["redirected"] += redirected
            digest.update(arrivals.tobytes())
            digest.update(lat.tobytes())
            digest.update(node_col.tobytes())
            if records is not None:
                records.arrivals.extend(arr_list)
                records.latencies.extend(lat)
                records.nodes.extend(node_col)
                records.path_ranks.extend(rank_list)
                records.redirected.extend(red_col)

    sim.run(until=sim.spawn(driver(), name="fluid-driver"))

    counters = registry.counters("fluid")
    counters.incr("requests", by=scenario.n_requests)
    counters.incr("redirected", by=totals["redirected"])
    node_counters = registry.counters("fluid.served")
    for node_id, count in enumerate(served):
        node_counters.incr(f"n{node_id}", by=count)
    hist = registry.histogram("fluid.latency_s")
    hist.absorb(bucket_counts.tolist(), scenario.n_requests,
                totals["latency_sum"], totals["lat_min"], totals["lat_max"])
    digest.update(repr(tuple(served)).encode())
    return FluidResult(
        scenario=scenario,
        records=records,
        registry=registry,
        fingerprint=digest.hexdigest(),
        finished_at=max(busy),
        event_count=sim.event_count,
        n_requests=scenario.n_requests,
        redirected=totals["redirected"],
        served=served,
    )
