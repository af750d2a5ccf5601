"""The broker: SWEB's per-node scheduler (§3.1–3.2, Figure 3).

"[The httpd contains] a broker module which determines the best possible
processor to handle a given request.  The broker consults with two other
modules, the oracle and the loadd."

Given a preprocessed request, the broker (a) locates the file's home
disk, (b) asks the oracle for the task's demands, (c) prices every
available server with the multi-faceted cost model, and (d) picks the
minimum-time candidate, inflating the winner's believed CPU load by Δ
when the request is shipped away.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, TYPE_CHECKING

from ..cluster.filesystem import DistributedFileSystem
from ..obs import Tracer
from ..sim import Simulator
from .costmodel import CostEstimate, CostModel
from .loadinfo import ClusterView
from .oracle import Oracle, TaskEstimate

if TYPE_CHECKING:  # pragma: no cover
    from ..cache import CacheDirectory

__all__ = ["BrokerDecision", "Broker"]


class BrokerDecision(NamedTuple):
    """Outcome of one broker consultation (immutable)."""

    chosen: int                      # node that should serve the request
    local: int                       # node the broker ran on
    estimates: tuple[CostEstimate, ...]  # every candidate's predicted t_s
    task: TaskEstimate

    @property
    def redirected(self) -> bool:
        return self.chosen != self.local

    def estimate_tags(self) -> dict[str, object]:
        """Flatten the consultation into span tags (repro.obs).

        One ``est_n<id>`` key per priced candidate (predicted t_s,
        rounded so traces stay compact), plus the winner and whether the
        argmin moved the request — a trace then shows *why* the broker
        chose its node, not just that it did.
        """
        tags: dict[str, object] = {
            "winner": self.chosen,
            "local": self.local,
            "redirected": self.redirected,
        }
        for est in self.estimates:
            tags[f"est_n{est.node}"] = round(est.total, 6)
        return tags


class Broker:
    """Per-node argmin scheduler over the multi-faceted cost model."""

    def __init__(self, sim: Simulator, node_id: int, view: ClusterView,
                 oracle: Oracle, cost_model: CostModel,
                 fs: DistributedFileSystem,
                 tracer: Optional[Tracer] = None,
                 local_probe: Optional[Callable[[], "LoadSnapshot"]] = None,
                 directory: Optional["CacheDirectory"] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.view = view
        self.oracle = oracle
        self.cost_model = cost_model
        self.fs = fs
        self.tracer = tracer
        #: instantaneous self-load reading (a node's own /proc is current;
        #: only the peers' broadcast info is stale)
        self.local_probe = local_probe
        #: cooperative-cache directory (docs/CACHING.md); when wired, the
        #: t_data term prices directory-confirmed RAM copies at memory
        #: bandwidth instead of disk/NFS bandwidth
        self.directory = directory
        self.decisions = 0
        self.redirections = 0
        #: times the graceful-degradation fallback served locally because
        #: peer load information was too stale to trust
        self.fallbacks = 0

    def choose_server(self, path: str, client_latency: float) -> BrokerDecision:
        """Run step 2 of §3.2: analyse the request, price every candidate,
        and return the minimum-completion-time choice.

        Ties prefer the local node (no redirection cost is ever worth
        paying for an equal estimate), then the lowest node id.

        With ``graceful_degradation`` on, two safety rails wrap the
        argmin: when even the freshest peer report is older than
        ``fallback_staleness`` the broker serves locally (DNS rotation
        already spread arrivals, so this degrades to round-robin rather
        than trusting a fictional cost model), and individual peers
        silent past ``suspicion_timeout`` are excluded as redirect
        targets before the staleness timeout declares them dead.
        """
        now = self.sim.now
        self.decisions += 1
        params = self.cost_model.params
        if params.graceful_degradation:
            peer_age = self.view.freshest_peer_age(now)
            if peer_age is None or peer_age > params.fallback_staleness:
                self.fallbacks += 1
                if self.tracer is not None and self.tracer.active:
                    self.tracer.emit(now, "sched", f"broker-{self.node_id}",
                                     "stale_fallback", path=path,
                                     peer_age=(round(peer_age, 3)
                                               if peer_age is not None
                                               else None))
                file_size = (self.fs.locate(path).size
                             if self.fs.exists(path) else 0.0)
                return BrokerDecision(
                    chosen=self.node_id, local=self.node_id, estimates=(),
                    task=self.oracle.characterize(path, file_size))
        # (a) Where does the file live?
        file_home: Optional[int] = None
        file_size = 0.0
        file_wan = False
        if self.fs.exists(path):
            meta = self.fs.locate(path)
            file_home, file_size = meta.home, meta.size
            file_wan = meta.wan
        # (b) What does it demand?
        task = self.oracle.characterize(path, file_size)
        # (c) Price every available candidate.  The local node is priced
        # from an instantaneous probe when one is wired in.
        local = self.node_id
        candidates = self.view.available(now)
        if params.graceful_degradation:
            # Drop suspects: a silent-but-not-yet-stale peer may be dead,
            # and redirecting a client into a dead node costs a drop.
            candidates = [c for c in candidates
                          if not self.view.suspected(c.node, now)]
        if self.local_probe is not None:
            fresh = self.local_probe()
            for i, cand in enumerate(candidates):
                if cand.node == local:
                    candidates[i] = fresh
                    break
            else:
                candidates.append(fresh)
        home_snap = None
        if file_home is not None:
            home_snap = self.view.get(file_home, now)
            if (self.local_probe is not None and file_home == local):
                home_snap = fresh
        directory = self.directory
        cached: Optional[list[bool]] = None
        if directory is not None and file_size > 0:
            cached = [directory.holds(cand.node, path, now)
                      for cand in candidates]
        estimates = self.cost_model.estimate_all(
            task, candidates, home_snap, file_home, local, client_latency,
            cached, file_wan)
        if not estimates:
            # Nobody else is known: serve locally.
            return BrokerDecision(chosen=local, local=local, estimates=(),
                                  task=task)
        # (d) Argmin with deterministic tie-breaking.  Candidates need not
        # be in node order (the local probe may come last), so the node id
        # is part of the key.
        best = estimates[0]
        best_key = (best.total, best.node != local, best.node)
        for est in estimates[1:]:
            key = (est.total, est.node != local, est.node)
            if key < best_key:
                best, best_key = est, key
        decision = BrokerDecision(chosen=best.node, local=local,
                                  estimates=estimates, task=task)
        if best.node != local:
            self.redirections += 1
            # Δ-inflation: guard against unsynchronized overloading.
            self.view.inflate_cpu(best.node, params.delta)
        if self.tracer is not None and self.tracer.active:
            self.tracer.emit(now, "sched", f"broker-{local}",
                             "choose_server", path=path, winner=best.node,
                             t_s=round(best_key[0], 6),
                             candidates=len(estimates))
        return decision
