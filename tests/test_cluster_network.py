"""Unit tests for interconnect models (repro.cluster.network)."""

import json
import math

import pytest

from repro.cluster import (
    FatTreeNetwork,
    Internet,
    Link,
    SharedBusNetwork,
    WANPath,
    meiko_cs2,
)
from repro.config import cluster_spec_to_dict, load_config
from repro.geo.spec import WanLink
from repro.sim import FairShareServer, Simulator


# --------------------------------------------------------------------- Link
def test_link_latency_plus_service():
    sim = Simulator()
    link = Link(sim, bandwidth=10e6, latency=0.1)
    log = []

    def go():
        yield link.transfer(5e6)
        log.append(sim.now)

    sim.spawn(go())
    sim.run()
    assert log == [pytest.approx(0.6)]


def test_link_shares_bandwidth():
    sim = Simulator()
    link = Link(sim, bandwidth=10e6, latency=0.0)
    log = []

    def go(tag):
        yield link.transfer(10e6)
        log.append((tag, sim.now))

    sim.spawn(go(1))
    sim.spawn(go(2))
    sim.run()
    assert [t for _, t in log] == [pytest.approx(2.0), pytest.approx(2.0)]
    assert link.bytes_sent == pytest.approx(20e6)


# ------------------------------------------------------------------ FatTree
def test_fattree_disjoint_transfers_do_not_contend():
    sim = Simulator()
    net = FatTreeNetwork(sim, nodes=4, bandwidth=10e6, latency=0.0)
    log = []

    def go(src, dst):
        yield net.transfer(src, dst, 10e6)
        log.append(sim.now)

    sim.spawn(go(0, 1))
    sim.spawn(go(2, 3))
    sim.run()
    # Different port pairs: both complete in 1s (non-blocking fabric).
    assert log == [pytest.approx(1.0), pytest.approx(1.0)]


def test_fattree_same_destination_contends():
    sim = Simulator()
    net = FatTreeNetwork(sim, nodes=4, bandwidth=10e6, latency=0.0)
    log = []

    def go(src):
        yield net.transfer(src, 3, 10e6)
        log.append(sim.now)

    sim.spawn(go(0))
    sim.spawn(go(1))
    sim.run()
    # Destination port 3 is shared: both take ~2 s.
    assert log == [pytest.approx(2.0), pytest.approx(2.0)]


def test_fattree_loopback_is_free():
    sim = Simulator()
    net = FatTreeNetwork(sim, nodes=2, bandwidth=1.0, latency=5.0)
    ev = net.transfer(1, 1, 1e9)
    assert ev.triggered
    assert net.bytes_sent == 0.0


def test_fattree_node_load_and_effective_bandwidth():
    sim = Simulator()
    net = FatTreeNetwork(sim, nodes=3, bandwidth=10e6, latency=0.0)
    net.transfer(0, 1, 10e6)
    sim.run(until=0.001)
    assert net.node_load(0) == 1
    assert net.node_load(1) == 1
    assert net.node_load(2) == 0


def _fattree_program():
    """Transfers and multicasts on one fabric, several finishing at the
    same instant.  Returns
    everything the run observed — each transfer's and port job's
    dispatch, with its position in the schedule."""
    sim = Simulator()
    net = FatTreeNetwork(sim, nodes=4, bandwidth=10e6, latency=1e-3)
    log = []

    def watch(label, ev, value=True):
        # event_count at dispatch pins each event's place in the schedule
        ev.callbacks.append(lambda e: log.append(
            (label, sim.event_count, sim.now, e.value if value else e.ok)))

    for port in net.ports:
        def submit(nbytes, tag=None, _submit=port.submit, _name=port.name):
            job = _submit(nbytes, tag=tag)
            watch((_name, tag), job, value=False)
            return job
        port.submit = submit
    for i, (src, dst, size) in enumerate([(0, 1, 4e6), (2, 1, 1e6),
                                          (1, 0, 2e6), (3, 3, 5e6)]):
        watch(f"t{i}", net.transfer(src, dst, size, tag=f"t{i}"))
    for i, ev in enumerate(net.multicast(2, [0, 3, 2], 3e6, tag="m")):
        watch(f"m{i}", ev)
    for i, ev in enumerate(net.multicast(0, [1, 2, 3], 1e6, tag="n")):
        watch(f"n{i}", ev)
    sim.run()
    return log, sim.now, sim.event_count


# Each fat-tree transfer's dispatch log, recorded when the countdown join
# lived in cluster.network: (label, event_count, clock, value), a port
# job's label (port, tag) with its ok flag, a transfer's its value.  The
# AllOf join it replaced logged the same port jobs and the same transfers
# in the same orders, at the same clocks with the same values, and
# dispatched 16 events more.
_FATTREE_LOG = [
    ("t3", 1, 0.0, 5e6), ("m2", 2, 0.0, 3e6),
    (("fat-tree.port3", "n"), 8, 0.201, True),
    (("fat-tree.port1", "t1"), 9, 0.401, True),
    (("fat-tree.port1", "n"), 9, 0.401, True),
    (("fat-tree.port2", "t1"), 10, 0.401, True), ("t1", 10, 0.401, 1e6),
    (("fat-tree.port2", "n"), 10, 0.401, True),
    (("fat-tree.port3", "m"), 11, 0.401, True),
    (("fat-tree.port0", "n"), 12, 0.601, True), ("n0", 12, 0.601, 1e6),
    (("fat-tree.port0", "n"), 12, 0.601, True), ("n1", 12, 0.601, 1e6),
    (("fat-tree.port0", "n"), 12, 0.601, True), ("n2", 12, 0.601, 1e6),
    (("fat-tree.port1", "t2"), 13, 0.601, True),
    (("fat-tree.port1", "t0"), 14, 0.8009999999999999, True),
    (("fat-tree.port2", "m"), 15, 0.801, True),
    (("fat-tree.port2", "m"), 15, 0.801, True), ("m1", 15, 0.801, 3e6),
    (("fat-tree.port0", "t2"), 16, 0.901, True), ("t2", 16, 0.901, 2e6),
    (("fat-tree.port0", "m"), 17, 1.101, True), ("m0", 17, 1.101, 3e6),
    (("fat-tree.port0", "t0"), 18, 1.201, True), ("t0", 18, 1.201, 4e6),
]
def test_fattree_countdown_join_matches_allof():
    """The fat-tree join dispatches exactly as recorded (see
    ``_FATTREE_LOG``): a transfer settles in its last port job's
    dispatch, right after it and ahead of the other port jobs due at
    that instant, with the transfer's size as value."""
    log, now, count = _fattree_program()
    assert log == _FATTREE_LOG
    assert (now, count) == (1.201, 18)


def test_fattree_rejects_bad_endpoints():
    sim = Simulator()
    net = FatTreeNetwork(sim, nodes=2, bandwidth=1.0)
    with pytest.raises(ValueError):
        net.transfer(0, 5, 1.0)


# ---------------------------------------------------------------------- Bus
def test_bus_all_transfers_contend():
    sim = Simulator()
    net = SharedBusNetwork(sim, bandwidth=10e6, latency=0.0)
    log = []

    def go(src, dst):
        yield net.transfer(src, dst, 10e6)
        log.append(sim.now)

    # Disjoint node pairs STILL share the medium (unlike the fat-tree).
    sim.spawn(go(0, 1))
    sim.spawn(go(2, 3))
    sim.run()
    assert log == [pytest.approx(2.0), pytest.approx(2.0)]


def test_bus_background_load_shrinks_bandwidth():
    sim = Simulator()
    net = SharedBusNetwork(sim, bandwidth=10e6, latency=0.0, background_load=0.5)
    assert net.bandwidth == pytest.approx(5e6)
    log = []

    def go():
        yield net.transfer(0, 1, 5e6)
        log.append(sim.now)

    sim.spawn(go())
    sim.run()
    assert log == [pytest.approx(1.0)]


def test_bus_node_load_is_global():
    sim = Simulator()
    net = SharedBusNetwork(sim, bandwidth=10e6, latency=0.0)
    net.transfer(0, 1, 10e6)
    sim.run(until=0.001)
    assert net.node_load(0) == net.node_load(3) == 1


def test_bus_rejects_bad_background_load():
    sim = Simulator()
    with pytest.raises(ValueError):
        SharedBusNetwork(sim, bandwidth=1.0, background_load=1.0)


# ------------------------------------------------ shared transfer path
def _fabric_program(kind, latency):
    """Transfers and multicasts on one fabric with a loopback destination
    and one destination across a partition cut, then more traffic after
    the cut heals.  Returns each completion's (label, event_count, now,
    value), station jobs included, plus the fabric's counters."""
    sim = Simulator()
    if kind == "fat-tree":
        net = FatTreeNetwork(sim, nodes=4, bandwidth=10e6, latency=latency)
        stations = net.ports
    else:
        net = SharedBusNetwork(sim, bandwidth=10e6, latency=latency)
        stations = [net.bus]
    log = []

    def watch(label, ev, value=True):
        ev.callbacks.append(lambda e: log.append(
            (label, sim.event_count, sim.now, e.value if value else e.ok)))

    for station in stations:
        def submit(nbytes, tag=None, _submit=station.submit,
                   _name=station.name):
            job = _submit(nbytes, tag=tag)
            watch((_name, tag), job, value=False)
            return job
        station.submit = submit
    net.partition([[0, 1, 2], [3]])
    for i, (src, dst, size) in enumerate([(0, 1, 4e6), (2, 1, 1e6),
                                          (1, 1, 5e6), (0, 3, 2e6),
                                          (1, 0, 2e6)]):
        watch(f"t{i}", net.transfer(src, dst, size, tag=f"t{i}"))
    for i, ev in enumerate(net.multicast(2, [0, 2, 3, 1], 3e6, tag="m")):
        watch(f"m{i}", ev)
    sim.run(until=0.2)
    net.heal()
    for i, ev in enumerate(net.multicast(3, [3, 0, 1], 1e6, tag="n")):
        watch(f"n{i}", ev)
    watch("h", net.transfer(3, 2, 1e6, tag="h"))
    sim.run()
    return log, net.transfers_lost, net.bytes_sent, sim.now, sim.event_count


#: the pinned schedule of _fabric_program per (fabric, latency):
#: (completions, transfers_lost, bytes_sent, end time, event_count).  A
#: crossing leg is settled in its last station job's dispatch: it shares
#: that job's event_count and is logged right after it.
FABRIC_SCHEDULES = {
    ('fat-tree', 0.001): ([
        ('t2', 1, 0.0, 5000000.0),
        ('m1', 2, 0.0, 3000000.0),
        ('n0', 8, 0.2, 1000000.0),
        (('fat-tree.port2', 't1'), 11, 0.3343333333333333, True),
        (('fat-tree.port1', 't1'), 12, 0.451, True),
        ('t1', 12, 0.451, 1000000.0),
        (('fat-tree.port3', 'n'), 13, 0.501, True),
        (('fat-tree.port3', 'n'), 13, 0.501, True),
        (('fat-tree.port3', 'h'), 13, 0.501, True),
        (('fat-tree.port2', 'h'), 14, 0.5343333333333333, True),
        ('h', 14, 0.5343333333333333, 1000000.0),
        (('fat-tree.port0', 'n'), 15, 0.601, True),
        ('n1', 15, 0.601, 1000000.0),
        (('fat-tree.port1', 'n'), 16, 0.651, True),
        ('n2', 16, 0.651, 1000000.0),
        (('fat-tree.port0', 't4'), 17, 0.701, True),
        (('fat-tree.port2', 'm'), 18, 0.8009999999999999, True),
        (('fat-tree.port2', 'm'), 18, 0.8009999999999999, True),
        (('fat-tree.port1', 't4'), 19, 0.801, True),
        ('t4', 19, 0.801, 2000000.0),
        (('fat-tree.port0', 'm'), 20, 0.9009999999999999, True),
        ('m0', 20, 0.9009999999999999, 3000000.0),
        (('fat-tree.port0', 't0'), 21, 1.001, True),
        (('fat-tree.port1', 'm'), 22, 1.0010000000000001, True),
        ('m3', 22, 1.0010000000000001, 3000000.0),
        (('fat-tree.port1', 't0'), 23, 1.101, True),
        ('t0', 23, 1.101, 4000000.0),
    ], 2, 16000000.0, 1.101, 23),
    ('bus', 0.0005): ([
        ('t2', 1, 0.0, 5000000.0),
        ('m1', 2, 0.0, 3000000.0),
        ('n0', 8, 0.2, 1000000.0),
        (('ethernet.bus', 't1'), 11, 0.6805, True),
        ('t1', 11, 0.6805, 1000000.0),
        (('ethernet.bus', 'n'), 12, 0.9604999999999999, True),
        ('n1', 12, 0.9604999999999999, 1000000.0),
        (('ethernet.bus', 'n'), 12, 0.9604999999999999, True),
        ('n2', 12, 0.9604999999999999, 1000000.0),
        (('ethernet.bus', 'h'), 12, 0.9604999999999999, True),
        ('h', 12, 0.9604999999999999, 1000000.0),
        (('ethernet.bus', 't4'), 13, 1.2005, True),
        ('t4', 13, 1.2005, 2000000.0),
        (('ethernet.bus', 'm'), 14, 1.5005, True),
        ('m0', 14, 1.5005, 3000000.0),
        (('ethernet.bus', 'm'), 14, 1.5005, True),
        ('m3', 14, 1.5005, 3000000.0),
        (('ethernet.bus', 't0'), 15, 1.6004999999999998, True),
        ('t0', 15, 1.6004999999999998, 4000000.0),
    ], 2, 16000000.0, 1.6004999999999998, 15),
    ('bus', 0.0): ([
        ('t2', 5, 0.0, 5000000.0),
        ('m1', 6, 0.0, 3000000.0),
        ('n0', 10, 0.2, 1000000.0),
        (('ethernet.bus', 't1'), 11, 0.6799999999999999, True),
        ('t1', 11, 0.6799999999999999, 1000000.0),
        (('ethernet.bus', 'n'), 12, 0.96, True),
        ('n1', 12, 0.96, 1000000.0),
        (('ethernet.bus', 'n'), 12, 0.96, True),
        ('n2', 12, 0.96, 1000000.0),
        (('ethernet.bus', 'h'), 12, 0.96, True),
        ('h', 12, 0.96, 1000000.0),
        (('ethernet.bus', 't4'), 13, 1.2, True),
        ('t4', 13, 1.2, 2000000.0),
        (('ethernet.bus', 'm'), 14, 1.5, True),
        ('m0', 14, 1.5, 3000000.0),
        (('ethernet.bus', 'm'), 14, 1.5, True),
        ('m3', 14, 1.5, 3000000.0),
        (('ethernet.bus', 't0'), 15, 1.6, True),
        ('t0', 15, 1.6, 4000000.0),
    ], 2, 16000000.0, 1.6, 15),
}


@pytest.mark.parametrize("kind,latency", list(FABRIC_SCHEDULES))
def test_fabric_schedule_pinned(kind, latency):
    """Loopback legs finish at once and move no bytes, legs into the cut
    never finish and count as lost, and every other leg lands at the
    pinned clock and place in the schedule."""
    log, lost, sent, end, count = _fabric_program(kind, latency)
    assert (log, lost, sent, end, count) == FABRIC_SCHEDULES[kind, latency]
    assert lost == 2                 # t3 and m2 crossed the cut
    assert sent == 16e6              # loopback and lost legs move nothing
    assert {"t3", "m2"}.isdisjoint(label for label, *_ in log)


# ----------------------------------------------------------------- Internet
def test_internet_send_capped_by_client_path():
    sim = Simulator()
    internet = Internet(sim)
    nic = FairShareServer(sim, rate=100e6, name="nic")
    slow_path = WANPath(latency=0.0, bandwidth=1e6)
    log = []

    def go():
        yield internet.send(nic, slow_path, 2e6)
        log.append(sim.now)

    sim.spawn(go())
    sim.run()
    assert log == [pytest.approx(2.0)]


def test_internet_slow_client_does_not_starve_fast_one():
    sim = Simulator()
    internet = Internet(sim)
    nic = FairShareServer(sim, rate=10e6, name="nic")
    slow = WANPath(latency=0.0, bandwidth=1e6)
    fast = WANPath(latency=0.0, bandwidth=100e6)
    log = {}

    def go(tag, path, size):
        yield internet.send(nic, path, size)
        log[tag] = sim.now

    sim.spawn(go("slow", slow, 1e6))
    sim.spawn(go("fast", fast, 9e6))
    sim.run()
    # Slow client capped at 1 MB/s; fast client gets the other 9 MB/s.
    assert log["slow"] == pytest.approx(1.0)
    assert log["fast"] == pytest.approx(1.0)


def test_internet_latency_applied():
    sim = Simulator()
    internet = Internet(sim)
    nic = FairShareServer(sim, rate=1e6, name="nic")
    path = WANPath(latency=0.04, bandwidth=1e6)  # east-coast client
    log = []

    def go():
        yield internet.send(nic, path, 1e6)
        log.append(sim.now)

    sim.spawn(go())
    sim.run()
    assert log == [pytest.approx(1.04)]


def test_stop_at_a_stream_completion_settled_in_its_job_dispatch():
    """run(until=done), where ``done`` is a stream's completion, settled
    in the dispatch of its station job, with a second waiter on the job
    and one on ``done``: both still run, the job ends processed, and
    clocks and values are those of a queued completion."""
    sim = Simulator()
    nic = FairShareServer(sim, rate=4.0, name="nic")
    done = Internet(sim).send(nic, WANPath(latency=0.5, bandwidth=2.0), 8.0)
    log = []
    jobs = []

    def on_done():
        value = yield done
        log.append(("done", sim.now, value))

    def on_job():
        yield sim.timeout(1.0)
        job, = nic.jobs
        jobs.append(job)
        got = yield job
        log.append(("job", sim.now, got is job))

    sim.spawn(on_done())
    sim.spawn(on_job())
    sim.run(until=1.5)               # both waiters attached by now
    assert sim.run(until=done) == 8.0
    assert sim.now == 4.5
    assert sorted(log) == [("done", 4.5, 8.0), ("job", 4.5, True)]
    job, = jobs
    assert job.processed and job.value is job and job.finished_at == 4.5
    assert done.triggered and done.value == 8.0
    sim.run()
    assert sim.now == 4.5 and len(log) == 2


def test_wanpath_validation():
    with pytest.raises(ValueError):
        WANPath(latency=-1.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        WANPath(latency=0.0, bandwidth=0.0)


# ------------------------------------------------------- path validation
PATHS = {
    "link": lambda bw, lat: Link(Simulator(), bandwidth=bw, latency=lat),
    "fat-tree": lambda bw, lat: FatTreeNetwork(Simulator(), 2, bandwidth=bw,
                                               latency=lat),
    "bus": lambda bw, lat: SharedBusNetwork(Simulator(), bandwidth=bw,
                                            latency=lat),
    "wan-path": lambda bw, lat: WANPath(latency=lat, bandwidth=bw),
    "wan-link": lambda bw, lat: WanLink(latency=lat, bandwidth=bw),
}


@pytest.mark.parametrize("kind", list(PATHS))
@pytest.mark.parametrize("bandwidth,latency", [
    (1e6, -1.0), (1e6, math.nan), (1e6, math.inf),
    (0.0, 0.0), (-1e6, 0.0), (math.nan, 0.0), (math.inf, 0.0)])
def test_paths_reject_non_finite_values(kind, bandwidth, latency):
    """A NaN latency would skip the hop, an infinite one never lands and
    an infinite bandwidth fails only at the first send: all refused at
    construction."""
    with pytest.raises(ValueError):
        PATHS[kind](bandwidth, latency)
    PATHS[kind](1e6, 0.0)


def test_json_config_with_nan_latency_rejected():
    cluster = cluster_spec_to_dict(meiko_cs2(2))
    cluster["network_latency"] = math.nan
    config = load_config(json.dumps({"cluster": cluster}))   # JSON allows NaN
    assert math.isnan(config.spec.network_latency)
    with pytest.raises(ValueError, match="latency"):
        config.build()
