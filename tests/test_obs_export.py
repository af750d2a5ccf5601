"""Tests for the trace exporters (docs/TRACING.md).

Three contracts:

* **Schema** — the Chrome ``trace_event`` document carries exactly the
  keys chrome://tracing and Perfetto need, with the repo's lane
  convention (pid 0 = client/WAN, pid ``node+1`` = node lanes, tid =
  request id).
* **Bit-stability** — two identical seeded runs render byte-identical
  JSON (the property ``serve --trace-requests`` relies on).
* **Observation-only tracing** — attaching a tracer to a golden
  determinism scenario must leave every fingerprint field unchanged.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.obs import (
    CLIENT_PID,
    Tracer,
    chrome_trace,
    flame_rollup,
    render_chrome_trace,
)


def _sample_tracer():
    """A small hand-built tracer: one client-side and one node span."""
    tracer = Tracer()
    root = tracer.begin(3, "/hot/doc.gif", "ucsb", 10.0)
    dns = tracer.start(root, "dns", 10.0, "network")
    tracer.finish(dns, 10.2, cache_hit=False)
    fulfill = tracer.start(root, "fulfill", 10.3, "data_transfer", node=2,
                           source="disk")
    tracer.finish(fulfill, 10.8)
    tracer.finish(root, 11.0)
    return tracer


# -- schema ----------------------------------------------------------------

def test_chrome_trace_event_schema():
    doc = chrome_trace(_sample_tracer().traces())
    assert doc["displayTimeUnit"] == "ms"
    assert "otherData" in doc
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 3
    for event in spans:
        assert set(event) == {"name", "cat", "ph", "ts", "dur", "pid",
                              "tid", "args"}
        assert event["tid"] == 3                    # tid = request id
        assert event["args"]["stage"] == event["cat"]
    by_name = {e["name"]: e for e in spans}
    # lane convention: client/WAN spans on pid 0, node spans on node+1
    assert by_name["request"]["pid"] == CLIENT_PID
    assert by_name["dns"]["pid"] == CLIENT_PID
    assert by_name["fulfill"]["pid"] == 2 + 1
    # sim seconds exported as microseconds
    assert by_name["request"]["ts"] == pytest.approx(10.0 * 1e6)
    assert by_name["request"]["dur"] == pytest.approx(1.0 * 1e6)
    assert by_name["fulfill"]["args"]["source"] == "disk"
    # every used pid gets a process_name metadata event
    assert {e["pid"] for e in meta} == {CLIENT_PID, 3}
    labels = {e["pid"]: e["args"]["name"] for e in meta}
    assert labels[CLIENT_PID] == "client/WAN"
    assert labels[3] == "node 2"


def test_open_spans_skipped_and_long_spans_clipped_to_root():
    tracer = Tracer()
    root = tracer.begin(0, "/x", "c", 0.0)
    tracer.start(root, "open", 0.5, "analysis")      # never closed
    late = tracer.start(root, "late", 1.0, "data_transfer", node=0)
    tracer.finish(root, 2.0)                         # root closes first...
    tracer.finish(late, 5.0)                         # ...handler runs on
    spans = [e for e in chrome_trace(tracer.traces())["traceEvents"]
             if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"request", "late"}
    by_name = {e["name"]: e for e in spans}
    # clipped into the root window: 1.0..2.0, not 1.0..5.0
    assert by_name["late"]["dur"] == pytest.approx(1.0 * 1e6)


def test_render_round_trips_and_is_sorted_json():
    text = render_chrome_trace(_sample_tracer().traces())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc == chrome_trace(_sample_tracer().traces())
    # canonical form: re-dumping with the same options reproduces it
    assert json.dumps(doc, sort_keys=True, indent=1) + "\n" == text


# -- flame rollup ----------------------------------------------------------

def test_flame_rollup_lists_paths_with_shares():
    text = flame_rollup(_sample_tracer().traces())
    lines = text.splitlines()
    assert "span" in lines[0]
    assert any(line.endswith("request") for line in lines)
    # children are indented under the root and sorted by total time
    assert any(line.endswith("  fulfill") for line in lines)
    assert any(line.endswith("  dns") for line in lines)
    assert lines.index([l for l in lines if l.endswith("  fulfill")][0]) < \
        lines.index([l for l in lines if l.endswith("  dns")][0])
    assert "100.0%" in [l for l in lines if l.endswith("request")][0]


def test_flame_rollup_depth_cap_and_open_spans():
    tracer = _sample_tracer()
    open_root = tracer.begin(9, "/open", "c", 0.0)
    tracer.start(open_root, "halfway", 0.1, "analysis")   # never closed
    tracer.finish(open_root, 1.0)
    capped = flame_rollup(tracer.traces(), max_depth=1)
    assert "request" in capped
    assert "fulfill" not in capped      # children beyond the cap dropped
    full = flame_rollup(tracer.traces())
    assert "halfway" not in full        # open spans never counted


def test_flame_rollup_empty():
    assert flame_rollup([]) == "(no traces collected)\n"
    assert flame_rollup([], max_depth=1) == "(no traces collected)\n"


# -- bit-stability across identical runs -----------------------------------

def _traced_run(seed=4):
    from repro.experiments.runner import run_scenario
    from repro.cluster import meiko_cs2
    from repro.experiments.table1 import table1_scenario

    scenario = replace(table1_scenario(meiko_cs2(3), 1.5e6, 6, 3.0, seed=seed),
                       tracer=Tracer())
    run_scenario(scenario)
    return scenario.tracer


def test_identical_seeded_runs_render_identical_json():
    first = render_chrome_trace(_traced_run().traces())
    second = render_chrome_trace(_traced_run().traces())
    assert len(first) > 1000
    assert first == second
    assert flame_rollup(_traced_run().traces()) == \
        flame_rollup(_traced_run().traces())


test_identical_seeded_runs_render_identical_json.__coverage_gate_skip__ = True


# -- tracing is observation-only -------------------------------------------

def test_tracer_attached_run_keeps_golden_fingerprint():
    """det-meiko with a tracer attached matches the golden fingerprint.

    The strongest no-observer-effect statement the repo can make:
    instrument everything, then require every record, counter and
    kernel-trace hash to be byte-for-byte what the un-instrumented
    golden run produced.
    """
    from repro.experiments.runner import run_scenario
    from tests.test_determinism import GOLDEN, _record_line, _scenarios

    scenario = replace(_scenarios()[0], tracer=Tracer())
    assert scenario.name == "det-meiko"
    result = run_scenario(scenario)
    metrics = result.metrics
    trace_text = scenario.tracer.render()
    current = {
        "records": [_record_line(r) for r in metrics.records],
        "counters": {k: v for k, v in
                     sorted(metrics.counters.as_dict().items())},
        "served_by": {str(k): v for k, v in
                      sorted(metrics.served_by_histogram().items())},
        "finished_at": repr(result.finished_at),
        "trace_records": len(scenario.tracer.records),
        "trace_sha256": hashlib.sha256(trace_text.encode()).hexdigest(),
    }
    golden = json.loads(GOLDEN.read_text())["det-meiko"]
    for key in golden:
        assert current[key] == golden[key], (
            f"det-meiko.{key} drifted when a tracer was attached — "
            f"tracing must be observation-only")
    # and the tracer did actually collect the run
    assert len(scenario.tracer) == len(metrics.records)
    assert all(t.root is not None for t in scenario.tracer.traces())
    # ... and its spans reconcile with every completed request's latency
    for rec in metrics.records:
        if rec.ok:
            assert scenario.tracer.get(rec.req_id).reconciles(
                rec.response_time)


test_tracer_attached_run_keeps_golden_fingerprint.__coverage_gate_skip__ = (
    True)
