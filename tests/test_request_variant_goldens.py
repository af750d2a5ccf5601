"""Bit-for-bit pins of the request-path variants the other goldens miss.

``tests/data/determinism_fingerprint.json`` and the policy goldens drive
plain GETs through redirection.  The cells here reach the rest of the
httpd/client/oracle/file-system surface, each as a short fixed schedule
of overlapping requests on a small Meiko:

* ``forward`` — ``CostParameters(reassignment="forward")``: requests are
  relayed over the fabric instead of redirected;
* ``post`` — ``enable_post`` with a CGI upload, plus a plain CGI GET and
  a POST to a static path (501);
* ``errors`` — an unknown method (400), an unsupported one (501), a
  missing path (404) and HEAD, between ordinary GETs;
* ``adaptive`` — an :class:`~repro.core.AdaptiveOracle` whose learned
  rates take over from a mis-specified table mid-run;
* ``striped`` — files striped across several disks next to whole files.

Each entry is the sha256 of the per-request record lines (the
determinism-golden format), the counters, every node's httpd counters
and CPU accounting, the trace text and the kernel's event count.

If a change legitimately alters one of these paths, regenerate::

    PYTHONPATH=src python tests/test_request_variant_goldens.py --regenerate

and explain the behaviour change in the commit message.
"""

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import SWEBCluster, meiko_cs2
from repro.core import AdaptiveOracle, CostParameters, OracleRule
from repro.experiments.shard import scenario_record_lines
from repro.obs import Tracer
from repro.web.client import RUTGERS_CLIENT, UCSB_CLIENT

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "request_variant_goldens.json"

#: seconds between request launches (short enough that requests overlap)
GAP = 0.03
#: simulated run length; every request of every cell settles well before
HORIZON = 30.0


def _files(cluster: SWEBCluster, n_nodes: int) -> list[str]:
    paths = []
    for i in range(8):
        ext = ("html", "gif", "txt", "tif")[i % 4]
        path = f"/doc{i}.{ext}"
        cluster.add_file(path, 2e4 + 1.7e5 * i, home=i % n_nodes)
        paths.append(path)
    return paths


def _cell(name: str):
    """Build cell ``name``: (cluster, [(path, method, body_bytes, profile)])."""
    trace = Tracer(max_requests=0)
    if name == "forward":
        cluster = SWEBCluster(meiko_cs2(4), policy="sweb", seed=3,
                              params=CostParameters(reassignment="forward"),
                              backlog=10, tracer=trace)
        paths = _files(cluster, 4)
        plan = [(paths[(3 * i) % 8], "GET", 0.0, i % 3 == 0)
                for i in range(48)]
    elif name == "post":
        cluster = SWEBCluster(meiko_cs2(3), policy="sweb", seed=5,
                              params=CostParameters(enable_post=True),
                              tracer=trace)
        paths = _files(cluster, 3)
        cluster.add_cgi("/cgi-bin/upload", cpu_ops=4e6, output_bytes=500.0)
        cluster.add_cgi("/cgi-bin/scan", cpu_ops=2e6, output_bytes=800.0,
                        reads_path=paths[1])
        plan = []
        for i in range(48):
            if i % 4 == 0:
                plan.append(("/cgi-bin/upload", "POST", 1e4 * (1 + i), False))
            elif i % 4 == 1:
                plan.append(("/cgi-bin/scan", "GET", 0.0, i % 8 == 1))
            elif i % 8 == 2:
                plan.append((paths[i % 8], "POST", 2e3, False))
            else:
                plan.append((paths[i % 8], "GET", 0.0, False))
    elif name == "errors":
        cluster = SWEBCluster(meiko_cs2(3), policy="sweb", seed=7,
                              tracer=trace)
        paths = _files(cluster, 3)
        odd = [("/doc1.gif", "FOO"), ("/doc2.txt", "PUT"),
               ("/missing.html", "GET"), ("/doc3.tif", "HEAD")]
        plan = []
        for i in range(48):
            if i % 3 == 2:
                path, method = odd[(i // 3) % 4]
                plan.append((path, method, 0.0, i % 2 == 0))
            else:
                plan.append((paths[(5 * i) % 8], "GET", 0.0, False))
    elif name == "adaptive":
        oracle = AdaptiveOracle(
            rules=[OracleRule(pattern="*.gif", ops_per_byte=0.5),
                   OracleRule(pattern="*", ops_per_byte=0.05)],
            alpha=0.5, min_observations=2)
        cluster = SWEBCluster(meiko_cs2(4), policy="sweb", seed=9,
                              oracle=oracle, tracer=trace)
        paths = _files(cluster, 4)
        plan = [(paths[(7 * i) % 8], "GET", 0.0, i % 5 == 0)
                for i in range(48)]
    elif name == "striped":
        cluster = SWEBCluster(meiko_cs2(4), policy="sweb", seed=11,
                              tracer=trace)
        paths = _files(cluster, 4)
        cluster.add_striped_file("/map0.tif", 3e6, stripes=[0, 1, 2, 3])
        cluster.add_striped_file("/map1.tif", 1.2e6, stripes=[2, 3])
        striped = ["/map0.tif", "/map1.tif"]
        plan = [(striped[i % 2] if i % 3 == 0 else paths[i % 8], "GET", 0.0,
                 i % 4 == 0) for i in range(48)]
    else:
        raise KeyError(name)
    return cluster, trace, plan


CELLS = ("forward", "post", "errors", "adaptive", "striped")


def run_cell(name: str):
    cluster, trace, plan = _cell(name)
    sim = cluster.sim
    ucsb = cluster.client(UCSB_CLIENT)
    rutgers = cluster.client(RUTGERS_CLIENT)

    def arrivals():
        for path, method, body, far in plan:
            (rutgers if far else ucsb).fetch(path, method=method,
                                             body_bytes=body)
            yield sim.timeout(GAP)

    sim.spawn(arrivals(), name="variant-arrivals")
    cluster.run(until=HORIZON)
    return cluster, trace


def entry(name: str) -> dict:
    cluster, trace = run_cell(name)
    metrics = cluster.metrics
    digest = hashlib.sha256()
    for line in scenario_record_lines(SimpleNamespace(metrics=metrics)):
        digest.update(line.encode())
        digest.update(b"\n")
    digest.update(repr(sorted(metrics.counters.as_dict().items())).encode())
    for node_id, server in sorted(cluster.servers.items()):
        digest.update(repr((node_id, server.requests_handled,
                            server.redirects_issued, server.forwards_issued,
                            server.connections_refused)).encode())
    digest.update(repr(sorted(cluster.cpu_seconds_by_category().items()))
                  .encode())
    digest.update(trace.render().encode())
    statuses: dict[str, int] = {}
    for rec in metrics.records:
        key = str(rec.status)
        statuses[key] = statuses.get(key, 0) + 1
    return {"fingerprint": digest.hexdigest(),
            "event_count": cluster.sim.event_count,
            "statuses": dict(sorted(statuses.items())),
            "forwards": sum(s.forwards_issued
                            for s in cluster.servers.values()),
            "redirects": cluster.total_redirections()}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_cell():
    assert sorted(_load()) == sorted(CELLS)


@pytest.mark.parametrize("name", CELLS)
def test_request_variant_is_pinned(name):
    assert entry(name) == _load()[name]


def test_cells_reach_their_variants():
    golden = _load()
    assert golden["forward"]["forwards"] > 0
    assert golden["forward"]["redirects"] == 0
    assert golden["post"]["statuses"].get("501", 0) > 0
    assert golden["post"]["statuses"].get("200", 0) > 0
    errors = golden["errors"]["statuses"]
    assert all(errors.get(code, 0) > 0 for code in ("400", "404", "501"))
    assert golden["adaptive"]["redirects"] > 0
    assert golden["striped"]["statuses"] == {"200": 48}


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        DATA.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps({n: entry(n) for n in CELLS},
                                     indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
