"""X10 cooperative cache — directory + replication vs plain SWEB.

§4.1 credits SWEB's superlinear speedup to aggregate cluster RAM, but
plain SWEB exploits it only by accident: the cost model knows disk and
NFS locality, not RAM residency, and demand fills populate *only the
home node's* cache.  This experiment builds the adversarial case — a
Zipf hot set, every hot file homed on node 0, together larger than one
node's RAM but far smaller than the cluster's — and compares four
configurations:

* **plain** — paper-faithful SWEB: node 0's cache thrashes and its disk
  serves the overflow;
* **directory** — brokers consult the piggybacked cache directory when
  pricing ``t_data`` (LARD-style locality-aware redirection);
* **dir+repl** — the ReplicationDaemon additionally copies hot files
  into underloaded peers' caches, which the directory then advertises,
  so hot requests fan out to RAM across the whole cluster;
* **knockout** — the ablation control: the directory is maintained
  (same messages, same events) but ``use_cache_term=False`` blinds the
  cost model to it.  It must reproduce plain SWEB *exactly*.

Reported per configuration: aggregate page-cache hit rate, redirect
rate, p95 and mean response time, and replication traffic.
"""

from __future__ import annotations

from ..cluster import meiko_cs2
from ..core import CostParameters
from ..sim import RandomStreams
from ..workload import (Corpus, Document, MB, Scenario, burst_workload,
                        zipf_sampler)
from .base import ExperimentReport
from .runner import run_scenario
from .tables import ComparisonRow, render_table

__all__ = ["run", "coop_scenario", "hot_cold_corpus", "CONFIGS"]

#: scenario shape: the hot set (16 x 3 MB = 48 MB, all on node 0)
#: overflows one Meiko node's 32 MB RAM but fits easily in six nodes'.
N_HOT = 16
HOT_SIZE = 3.0 * MB
N_COLD = 60
COLD_SIZE = 100e3
TAIL_WEIGHT = 0.25

#: configuration name -> CostParameters factory (tuning shared by all:
#: a 16-entry advertisement covers the whole hot set; the replication
#: budget is sized so every demand-filled hot file is spread to
#: factor-3 coverage within a couple of daemon periods)
CONFIGS = {
    "plain": lambda: CostParameters(),
    "directory": lambda: CostParameters(
        coop_cache=True, cache_hot_set=N_HOT),
    "dir+repl": lambda: CostParameters(
        coop_cache=True, cache_hot_set=N_HOT, replicate=True,
        replication_factor=3, replication_period=1.0,
        replication_skew=1.0, replication_max_per_cycle=16),
    "knockout": lambda: CostParameters(
        coop_cache=True, cache_hot_set=N_HOT, use_cache_term=False),
}


def hot_cold_corpus(n_nodes: int, hot_home: int = 0) -> Corpus:
    """Hot files all homed on one node, cold tail spread round-robin.

    The hot documents come first so ``zipf_sampler(hot_set=N_HOT)``
    lands the Zipf head exactly on them.
    """
    docs = [Document(path=f"/hot/doc{i:03d}.gif", size=HOT_SIZE,
                     home=hot_home % n_nodes)
            for i in range(N_HOT)]
    docs.extend(Document(path=f"/cold/page{i:04d}.html", size=COLD_SIZE,
                         home=i % n_nodes)
                for i in range(N_COLD))
    return Corpus(name="hot-cold", documents=docs)


def coop_scenario(config: str, duration: float = 480.0,
                  seed: int = 7) -> Scenario:
    """The X10 cell: the Zipf hot set at 6 rps on the 6-node Meiko, under
    one CONFIGS entry.

    The run must be long relative to the ~10 s cold-start storm (48 MB
    of hot files coming off one 5 MB/s disk exactly once): p95 only
    reflects the steady state — where the cooperative cache wins — once
    the storm cohort is under 5 % of all requests.
    """
    corpus = hot_cold_corpus(6)
    sampler = zipf_sampler(corpus, RandomStreams(seed=seed), alpha=1.0,
                           hot_set=N_HOT, tail_weight=TAIL_WEIGHT)
    return Scenario(name=f"cache-coop-{config}", spec=meiko_cs2(6),
                    corpus=corpus,
                    workload=burst_workload(6, duration, sampler),
                    policy="sweb", seed=seed, client_timeout=600.0,
                    backlog=1024, params=CONFIGS[config]())


def run(fast: bool = True) -> ExperimentReport:
    duration = 480.0 if fast else 900.0
    results = {name: run_scenario(coop_scenario(name, duration))
               for name in CONFIGS}

    rows = [[name,
             res.cache_hit_rate() * 100.0,
             res.redirection_rate * 100.0,
             res.p95_response_time(),
             res.mean_response_time,
             float(res.replications)]
            for name, res in results.items()]
    table = render_table(
        headers=["config", "page-cache hit (%)", "redirect (%)",
                 "p95 (s)", "mean (s)", "replications"],
        rows=rows,
        title=(f"Cooperative cache — Zipf hot set ({N_HOT} x "
               f"{HOT_SIZE / MB:.0f} MB on node 0), 6 nodes, 6 rps"))

    plain = results["plain"]
    both = results["dir+repl"]
    knockout = results["knockout"]
    knockout_identical = (
        knockout.completed == plain.completed
        and knockout.mean_response_time == plain.mean_response_time
        and knockout.cache_hit_rate() == plain.cache_hit_rate())
    comparisons = [
        ComparisonRow(
            "replication turns cluster RAM into a shared cache",
            "(not in paper — our extension)",
            f"hit rate {both.cache_hit_rate():.1%} vs "
            f"{plain.cache_hit_rate():.1%} plain",
            "dir+repl hit rate strictly higher than plain",
            ok=both.cache_hit_rate() > plain.cache_hit_rate()),
        ComparisonRow(
            "RAM-aware redirection cuts tail latency",
            "(not in paper — our extension)",
            f"p95 {both.p95_response_time():.2f}s vs "
            f"{plain.p95_response_time():.2f}s plain",
            "dir+repl p95 strictly lower than plain",
            ok=both.p95_response_time() < plain.p95_response_time()),
        ComparisonRow(
            "use_cache_term knockout reproduces plain SWEB",
            "bit-identical control",
            f"mean {knockout.mean_response_time:.4f}s vs "
            f"{plain.mean_response_time:.4f}s",
            "completed, mean rt and hit rate exactly equal",
            ok=knockout_identical),
    ]
    notes = ("The directory rides the existing loadd broadcasts "
             "(cache_report_bytes=0), so the knockout run schedules the "
             "same events as plain SWEB and must match it exactly.  "
             f"dir+repl landed {both.replications} copies "
             f"({both.cluster.replicator.bytes_replicated / MB:.0f} MB of "
             "replication traffic) to earn its hit-rate and tail-latency "
             "win — the communication-vs-balance trade of "
             "arXiv:1610.04513.")
    return ExperimentReport(
        exp_id="X10",
        title="Cooperative cache & hot-file replication (extension)",
        table=table,
        data={name: {"hit_rate": res.cache_hit_rate(),
                     "redirect_rate": res.redirection_rate,
                     "p95": res.p95_response_time(),
                     "mean": res.mean_response_time}
              for name, res in results.items()},
        comparisons=comparisons, notes=notes)
