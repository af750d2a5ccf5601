"""§3.3 — closed-form bound on the maximum sustained request rate.

With p nodes, average file size F, local/remote disk bandwidths b1/b2,
redirection probability d, preprocessing overhead A, redirection overhead
O, the per-node service demand of an average fetch is

    D = (1/p + d)·F/b1 + (1 − 1/p − d)·F/min(b1, b2) + A + d·(A + O)

(a 1/p + d fraction of requests find their file on the serving node's own
disk; the rest ride NFS at min(b1, b2); every request pays A once, and a
redirected request pays A again plus O).  The maximum sustained rps is
then r ≤ p / D.

The paper's worked example — b1 = 5 MB/s, b2 = 4.5 MB/s, O ≈ 0, p = 6,
per-node r = 2.88 — gives 17.3 rps for six nodes, "close to our
experimental results" (16 rps measured, §4.1 quotes 17.8 from the full
analysis in [AY95+]).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AnalysisInputs", "service_demand", "max_sustained_rps",
           "paper_example"]


@dataclass(frozen=True)
class AnalysisInputs:
    """Parameters of the §3.3 model."""

    p: int                 # number of nodes
    F: float               # average requested file size, bytes
    b1: float              # local disk bandwidth, bytes/s
    b2: float              # remote (NFS) disk bandwidth, bytes/s
    d: float = 0.0         # average redirection probability
    A: float = 0.0         # preprocessing overhead per request, s
    O: float = 0.0         # redirection overhead, s

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.F < 0:
            raise ValueError(f"negative F: {self.F}")
        if self.b1 <= 0 or self.b2 <= 0:
            raise ValueError("bandwidths must be > 0")
        if not 0.0 <= self.d <= 1.0:
            raise ValueError(f"d must be a probability, got {self.d}")
        if self.d + 1.0 / self.p > 1.0 + 1e-12:
            # With few nodes and high redirection everything is local.
            pass


def service_demand(inputs: AnalysisInputs) -> float:
    """Per-node busy time consumed by one average request (D above)."""
    local_frac = min(1.0, 1.0 / inputs.p + inputs.d)
    remote_frac = max(0.0, 1.0 - local_frac)
    demand = (local_frac * inputs.F / inputs.b1
              + remote_frac * inputs.F / min(inputs.b1, inputs.b2)
              + inputs.A
              + inputs.d * (inputs.A + inputs.O))
    return demand


def max_sustained_rps(inputs: AnalysisInputs, per_node: bool = False) -> float:
    """The §3.3 bound: r ≤ p / D (or 1/D per node)."""
    demand = service_demand(inputs)
    if demand <= 0:
        return float("inf")
    r_node = 1.0 / demand
    return r_node if per_node else inputs.p * r_node


def paper_example() -> AnalysisInputs:
    """The worked example of §3.3: 6 Meiko nodes fetching 1.5 MB files.

    A is chosen so the per-node rate lands on the paper's quoted 2.88
    (the tech-report [AY95+] carries the full parameterisation; the
    conference paper only states the result).
    """
    return AnalysisInputs(p=6, F=1.5e6, b1=5e6, b2=4.5e6, d=0.0,
                          A=0.0194, O=0.0)
