"""The multi-faceted cost model (§3.2).

For an HTTP request r arriving at processor x, the broker estimates, for
every candidate server s:

    t_s = t_redirection + t_data + t_CPU + t_net

with the terms defined exactly as in the paper:

* ``t_redirection = 2 · t_client_server_latency + t_connect`` when s ≠ x,
  zero otherwise — the browser's extra round trip after a 302.
* ``t_data = F / b_disk_eff`` when the file is local to s, else
  ``F / min(b_disk_eff, b_net_eff)`` — bandwidths de-rated by the
  measured channel loads (load₁, load₂).
* ``t_CPU = ops_required · (1 + CPU_load) / CPU_speed`` — the run-queue
  seen in s's last broadcast; heterogeneous speeds enter here.
* ``t_net`` — time to return the result over the Internet; "we assume all
  processors will have basically the same cost for this term, so it is
  not estimated" (kept as an optional term for the ablation study X1).

The knockout flags exist so experiment X1 can turn individual terms off
and show each one earns its keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

from .loadinfo import LoadSnapshot
from .oracle import TaskEstimate

__all__ = ["CostParameters", "CostEstimate", "CostModel"]


@dataclass(frozen=True)
class CostParameters:
    """Every tunable of the SWEB scheduler, with paper-calibrated defaults."""

    # --- scheduler behaviour ---
    delta: float = 0.30              # Δ, conservative CPU-load inflation
    max_redirects: int = 1           # "not … redirected more than once"
    # Reassignment mechanism: "URL redirection or request forwarding,
    # could be used … and we use the former" (§3.1).  "forward" enables
    # the road not taken, for experiment X4.
    reassignment: str = "redirect"
    # Future-work extension (§3.2 footnote): execute POSTs as CGIs.
    enable_post: bool = False
    # --- fixed per-request CPU costs, in operations (÷40e6 → seconds on a
    #     Meiko node): 70 ms preprocess, ~2 ms analysis, 4 ms redirect gen.
    preprocess_ops: float = 2.4e6    # parse + pathname + permissions
    fork_ops: float = 4.0e5          # fork a handling process (10 ms)
    analysis_ops: float = 8.0e4      # broker cost estimation (1–4 ms)
    redirect_ops: float = 1.6e5      # generating the 302 (4 ms)
    # Packetising/marshalling CPU per body byte ("processor load, caused by
    # the overhead necessary to send bytes out on the network properly
    # packetized and marshaled", §3).  6 ops/byte on a 40 Mops CPU caps a
    # single socket stream at ~6.7 MB/s — the 5–15 %-of-peak regime the
    # authors measured for TCP on the Meiko.  Charged concurrently with
    # the wire transfer (the stack overlaps with DMA).
    send_ops_per_byte: float = 6.0
    # --- network timing ---
    connect_time: float = 20e-3      # t_connect: TCP setup at the server
    # "The estimate of the link latency is available from the TCP/IP
    # implementation, but in the initial implementation is hand-coded into
    # the server" (§3.2).  When set, the broker prices t_redirection with
    # this constant instead of the true per-client latency; None = use the
    # measured latency (the paper's planned refinement).
    assumed_client_latency: Optional[float] = 30e-3
    # --- loadd ---
    loadd_period: float = 2.5        # broadcast every 2–3 s
    loadd_msg_bytes: float = 128.0   # one load report on the wire
    loadd_ops: float = 2.0e5         # CPU per broadcast (5 ms; §4.3 charges
                                     # ~0.2 % of the CPU to load monitoring)
    staleness_timeout: float = 8.0   # unavailable after ~3 missed periods
    # --- graceful degradation (the fault-tolerance layer; docs/FAULTS.md) ---
    # Master switch.  Off by default: the paper's SWEB neither retried
    # refused connections nor second-guessed its own cost model, and the
    # reproduction's baseline behaviour must stay paper-faithful.  The
    # faults experiment (X9) and `sweb-repro serve --graceful` turn it on.
    graceful_degradation: bool = False
    # Peer load info older than this means scheduling data is effectively
    # gone (loadd silent / partitioned): the broker stops trusting the
    # cost model and falls back to serving locally, which — because DNS
    # already rotates arrivals — degrades to round-robin.  Between one
    # missed broadcast (2.5 s) and the staleness timeout (8 s).
    fallback_staleness: float = 6.0
    # A peer silent this long is *suspected*: still priced as a candidate
    # hop target by un-degraded SWEB, but a graceful broker stops
    # redirecting to it before the full staleness timeout declares it
    # dead.  One missed broadcast plus slack.
    suspicion_timeout: float = 4.0
    # Bounded client retry: a refused or reset connection is retried at a
    # freshly-resolved node at most this many times (0 disables even when
    # graceful_degradation is on).  The at-most-once redirect rule is
    # preserved: a retried request never follows a second 302.
    client_retries: int = 2
    # First retry backoff in seconds; doubles per attempt (0.2, 0.4, ...).
    retry_backoff: float = 0.2
    # --- ablation knockouts (all on for real SWEB) ---
    use_data_term: bool = True
    use_cpu_term: bool = True
    use_net_term: bool = False       # paper: identical across nodes → skipped
    use_redirection_term: bool = True
    # --- assumed Internet bandwidth for t_net when enabled ---
    internet_bandwidth: float = 1e6
    # --- cooperative cache & hot-file replication (docs/CACHING.md) ---
    # Master switch for the repro.cache subsystem: loadd piggybacks each
    # node's hot cached-file set on its broadcasts and brokers consult
    # the resulting CacheDirectory when pricing t_data.
    coop_cache: bool = False
    # Run the ReplicationDaemon (requires coop_cache for the directory
    # to advertise the copies it creates).
    replicate: bool = False
    # Ablation knockout: with coop_cache on but use_cache_term off, the
    # directory is maintained (same wire traffic, same events) yet never
    # consulted by t_data — the X10 control that must reproduce plain
    # SWEB numbers exactly.
    use_cache_term: bool = True
    # Top-K resident files (by bytes·recency) advertised per broadcast.
    cache_hot_set: int = 8
    # Directory entries older than this are ignored, so muted or
    # partitioned peers age out of the cache view just as they age out
    # of the load view.  Matches staleness_timeout by default.
    cache_report_ttl: float = 8.0
    # Extra wire bytes per advertised path.  0.0 = the report rides in
    # the slack of the existing 128-byte loadd message (a handful of
    # path hashes fits), keeping coop broadcasts bit-identical to plain.
    cache_report_bytes: float = 0.0
    # --- replication-daemon knobs ---
    replication_period: float = 2.0      # skew scan interval (s)
    replication_factor: int = 3          # target cache copies per hot file
    replication_skew: float = 2.0        # hot = bytes >= skew x mean bytes
    replication_max_per_cycle: int = 4   # transfer budget per scan

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ValueError(f"negative delta: {self.delta}")
        if self.max_redirects < 0:
            raise ValueError(f"negative max_redirects: {self.max_redirects}")
        if self.loadd_period <= 0:
            raise ValueError(f"loadd_period must be > 0: {self.loadd_period}")
        if self.reassignment not in ("redirect", "forward"):
            raise ValueError(
                f"reassignment must be 'redirect' or 'forward', "
                f"got {self.reassignment!r}")
        if self.fallback_staleness <= 0:
            raise ValueError(
                f"fallback_staleness must be > 0: {self.fallback_staleness}")
        if self.suspicion_timeout <= 0:
            raise ValueError(
                f"suspicion_timeout must be > 0: {self.suspicion_timeout}")
        if self.client_retries < 0:
            raise ValueError(f"negative client_retries: {self.client_retries}")
        if self.retry_backoff < 0:
            raise ValueError(f"negative retry_backoff: {self.retry_backoff}")
        if self.replicate and not self.coop_cache:
            raise ValueError("replicate requires coop_cache (the directory "
                             "advertises the replicas)")
        if self.cache_hot_set < 1:
            raise ValueError(f"cache_hot_set must be >= 1: {self.cache_hot_set}")
        if self.cache_report_ttl <= 0:
            raise ValueError(
                f"cache_report_ttl must be > 0: {self.cache_report_ttl}")
        if self.cache_report_bytes < 0:
            raise ValueError(
                f"negative cache_report_bytes: {self.cache_report_bytes}")
        if self.replication_period <= 0:
            raise ValueError(
                f"replication_period must be > 0: {self.replication_period}")
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1: {self.replication_factor}")
        if self.replication_skew < 1.0:
            raise ValueError(
                f"replication_skew must be >= 1: {self.replication_skew}")
        if self.replication_max_per_cycle < 1:
            raise ValueError(f"replication_max_per_cycle must be >= 1: "
                             f"{self.replication_max_per_cycle}")


class CostEstimate(NamedTuple):
    """The broker's prediction for one candidate server (immutable)."""

    node: int
    t_redirection: float
    t_data: float
    t_cpu: float
    t_net: float

    @property
    def total(self) -> float:
        return self.t_redirection + self.t_data + self.t_cpu + self.t_net


class CostModel:
    """Evaluates t_s for candidate servers from (stale) load snapshots."""

    def __init__(self, params: Optional[CostParameters] = None,
                 net_bandwidth: float = 40e6,
                 mem_bandwidth: float = 80e6,
                 wan_bandwidth: Optional[float] = None,
                 wan_latency: float = 0.0) -> None:
        self.params = params or CostParameters()
        #: peak bandwidth of the intra-cluster fabric (b_net in §3.2)
        self.net_bandwidth = float(net_bandwidth)
        #: memory-copy bandwidth used to price a directory-confirmed
        #: RAM-resident file (the cooperative-cache t_data fast path)
        self.mem_bandwidth = float(mem_bandwidth)
        #: WAN uplink to the geo origin (docs/GEO.md); ``None`` for a
        #: single-cluster deployment, where ``wan``-flagged files never
        #: occur and t_data stays exactly the §3.2 formula
        self.wan_bandwidth = float(wan_bandwidth) if wan_bandwidth else None
        #: one-way WAN latency to the origin, added to a cache-miss fetch
        self.wan_latency = float(wan_latency)

    # -- individual terms ---------------------------------------------------
    def t_redirection(self, candidate: int, local: int,
                      client_latency: float) -> float:
        """2 · latency + t_connect if the request must move, else 0.

        Uses the hand-coded latency constant when configured (the paper's
        initial implementation), else the measured client latency.
        """
        if candidate == local:
            return 0.0
        return self._move_cost(client_latency)

    def _move_cost(self, client_latency: float) -> float:
        """t_redirection of a candidate the request must move to."""
        params = self.params
        if not params.use_redirection_term:
            return 0.0
        if params.assumed_client_latency is not None:
            client_latency = params.assumed_client_latency
        return 2.0 * client_latency + params.connect_time

    def t_data(self, est: TaskEstimate, candidate: LoadSnapshot,
               home: Optional[LoadSnapshot], file_home: Optional[int],
               cached: bool = False, wan: bool = False) -> float:
        """Disk (and, if remote, interconnect) time for the file bytes.

        ``cached`` means the cooperative-cache directory believes the
        candidate holds the file in RAM: the bytes then move at
        memory-copy bandwidth regardless of where the home disk is —
        LARD-style locality-aware pricing.  The ``use_cache_term``
        knockout restores the RAM-blind estimate for ablation.

        ``wan`` means the authoritative copy sits across a WAN link (the
        geo tier's origin): a non-cached fetch then pays the link latency
        plus the bytes at WAN bandwidth — nothing the candidate's local
        disk can speed up.  Ignored when no WAN is configured.
        """
        if not self.params.use_data_term or est.disk_bytes <= 0:
            return 0.0
        if cached and self.params.use_cache_term:
            return est.disk_bytes / self.mem_bandwidth
        if wan and self.wan_bandwidth is not None:
            return self.wan_latency + est.disk_bytes / self.wan_bandwidth
        if file_home is None:
            return 0.0
        if file_home == candidate.node:
            b_disk = candidate.disk_bandwidth / (1.0 + candidate.disk_load)
            return est.disk_bytes / b_disk
        # Remote: the home disk feeds the interconnect; the slower governs.
        if home is not None:
            b_disk = home.disk_bandwidth / (1.0 + home.disk_load)
        else:
            # Home's load unknown (stale): assume its disk unloaded.
            b_disk = candidate.disk_bandwidth
        b_net = self.net_bandwidth / (1.0 + candidate.net_load)
        return est.disk_bytes / min(b_disk, b_net)

    def t_cpu(self, est: TaskEstimate, candidate: LoadSnapshot,
              local: bool = False) -> float:
        """Queue-inflated CPU time for the *remaining* per-request work.

        The local node has already forked a handler and parsed the
        request; a remote candidate must redo both on arrival ("t_CPU is
        the time to fork a process, …").  This asymmetry is the natural
        hysteresis that keeps SWEB from redirecting on noise.
        """
        if not self.params.use_cpu_term:
            return 0.0
        ops = est.cpu_ops if local else self._remote_ops(est)
        return self._queued_cpu(ops, candidate)

    def _remote_ops(self, est: TaskEstimate) -> float:
        """CPU operations a candidate the request moves to must spend."""
        # est.cpu_ops already includes the oracle's per-byte send estimate.
        params = self.params
        return est.cpu_ops + (params.fork_ops + params.preprocess_ops)

    @staticmethod
    def _queued_cpu(ops: float, candidate: LoadSnapshot) -> float:
        """``ops`` behind ``candidate``'s believed run queue."""
        return ops * (1.0 + candidate.cpu_load) / candidate.cpu_speed

    def t_net(self, est: TaskEstimate) -> float:
        """Internet return time; identical across candidates, so normally 0."""
        if not self.params.use_net_term:
            return 0.0
        return est.output_bytes / self.params.internet_bandwidth

    # -- the full t_s ----------------------------------------------------------
    def estimate(self, est: TaskEstimate, candidate: LoadSnapshot,
                 home: Optional[LoadSnapshot], file_home: Optional[int],
                 local: int, client_latency: float,
                 cached: bool = False, wan: bool = False) -> CostEstimate:
        """Predict the completion time if ``candidate`` serves the request."""
        return self.estimate_all(est, (candidate,), home, file_home, local,
                                 client_latency, (cached,), wan)[0]

    def estimate_all(self, est: TaskEstimate,
                     candidates: Sequence[LoadSnapshot],
                     home: Optional[LoadSnapshot], file_home: Optional[int],
                     local: int, client_latency: float,
                     cached: Optional[Sequence[bool]] = None,
                     wan: bool = False) -> tuple[CostEstimate, ...]:
        """Price one request on every candidate, in candidate order.

        ``cached`` holds one directory answer per candidate (None: no
        candidate is believed to hold the file in RAM).  The per-request
        invariants — t_net, the move cost and the fork+parse work a
        remote candidate must redo — are computed once; t_data and t_CPU
        are the per-candidate terms, with the same expressions as the
        single-term methods, so every estimate equals term-by-term
        pricing bit for bit.
        """
        t_net = self.t_net(est)
        move = self._move_cost(client_latency)
        t_data = self.t_data
        use_cpu = self.params.use_cpu_term
        local_ops = est.cpu_ops
        remote_ops = self._remote_ops(est)
        queued_cpu = self._queued_cpu
        out = []
        for cand, hit in zip(candidates,
                             repeat(False) if cached is None else cached):
            here = cand.node == local
            out.append(CostEstimate(
                cand.node,
                0.0 if here else move,
                t_data(est, cand, home, file_home, hit, wan),
                (queued_cpu(local_ops if here else remote_ops, cand)
                 if use_cpu else 0.0),
                t_net))
        return tuple(out)
