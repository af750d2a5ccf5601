"""Reference fluid steppers: the decision loops that had no early exits.

:func:`reference_make_stepper` builds the homogeneous ``sweb`` stepper
and the ``jsq`` stepper exactly as :func:`repro.workload.fluid._make_stepper`
shipped them before their loops learned to stop once the answer is
decided: every request prices (or counts) every node.  The loop bodies
are kept verbatim.  ``tests/test_fluid_oracle.py`` swaps this factory in
for the real one and requires the same fingerprint, counters, finish
time and record columns.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim import RandomStreams
from repro.workload import FluidScenario

__all__ = ["REFERENCE_POLICIES", "reference_make_stepper"]

#: the policies this module carries a reference stepper for (``sweb``
#: only on homogeneous cells)
REFERENCE_POLICIES = ("sweb", "jsq")


def reference_make_stepper(scenario: FluidScenario, rng: RandomStreams,
                           service: "list[float]",
                           service_by: "Optional[list[list[float]]]",
                           busy: "list[float]", served: "list[int]"):
    """Drop-in for ``_make_stepper`` covering homogeneous sweb and jsq."""
    n_nodes = scenario.nodes
    t_redirect = scenario.t_redirect
    node_range = range(n_nodes)
    policy = scenario.policy
    rr = 0  # round-robin DNS cursor, carried across batches

    if policy == "sweb" and service_by is None:
        def step(m, arr_list, rank_list, lat, node_col, red_col):
            nonlocal rr
            redirected = 0
            for i in range(m):
                a = arr_list[i]
                s = service[rank_list[i]]
                home = rr
                rr = rr + 1
                if rr == n_nodes:
                    rr = 0
                # Broker argmin over estimated completions; moving off
                # the DNS home node costs the redirect penalty.
                best = home
                b = busy[home]
                best_score = (b if b > a else a) + s
                for j in node_range:
                    if j == home:
                        continue
                    b = busy[j]
                    score = (b if b > a else a) + s + t_redirect
                    if score < best_score:
                        best_score = score
                        best = j
                busy[best] = finish = ((busy[best] if busy[best] > a else a)
                                       + s)
                served[best] += 1
                if best != home:
                    latency = finish - a + t_redirect
                    redirected += 1
                    red_col[i] = 1
                else:
                    latency = finish - a
                lat[i] = latency
                node_col[i] = best
            return redirected
        return step

    if policy == "jsq":
        queues = [deque() for _ in node_range]

        def _count(j, a):
            q = queues[j]
            while q and q[0] <= a:
                q.popleft()
            return len(q)

        def _finish_on(j, a, rank):
            s = service[rank] if service_by is None else service_by[j][rank]
            b = busy[j]
            busy[j] = finish = (b if b > a else a) + s
            queues[j].append(finish)
            served[j] += 1
            return finish

        def step(m, arr_list, rank_list, lat, node_col, red_col):
            nonlocal rr
            redirected = 0
            for i in range(m):
                a = arr_list[i]
                home = rr
                rr = rr + 1
                if rr == n_nodes:
                    rr = 0
                best = home
                best_count = _count(home, a)
                for j in node_range:
                    if j == home:
                        continue
                    c = _count(j, a)
                    if c < best_count:
                        best_count = c
                        best = j
                finish = _finish_on(best, a, rank_list[i])
                if best != home:
                    latency = finish - a + t_redirect
                    redirected += 1
                    red_col[i] = 1
                else:
                    latency = finish - a
                lat[i] = latency
                node_col[i] = best
            return redirected
        return step

    raise ValueError(f"no reference stepper for policy {policy!r} "
                     f"(heterogeneous={service_by is not None})")
