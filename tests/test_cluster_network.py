"""Unit tests for interconnect models (repro.cluster.network)."""

import pytest

import repro.cluster.network as network
from repro.cluster import FatTreeNetwork, Internet, Link, SharedBusNetwork, WANPath
from repro.sim import AllOf, FairShareServer, Simulator


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


def _allof_join(sim, first, second, done, value):
    """The join the fat-tree used before the countdown: an AllOf."""
    both = AllOf(sim, [first, second])
    both.callbacks.append(lambda ev: done.succeed(value))


def _fattree_program(cancel_leg):
    """Transfers and multicasts on one fabric, several finishing at the
    same instant; optionally cancel one port job mid-transfer.  Returns
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
    raised = None
    try:
        if cancel_leg:
            sim.run(until=0.1)
            port = net.ports[1]
            port.cancel(port.jobs[0])
        sim.run()
    except InterruptedError as exc:
        raised = str(exc)
        sim.run()
    return log, raised, sim.now, sim.event_count


@pytest.mark.parametrize("cancel_leg", [False, True])
def test_fattree_countdown_join_matches_allof(monkeypatch, cancel_leg):
    """Same completions, clocks, values and event count as an AllOf join;
    a failed leg fails the join at once and surfaces from run() after the
    transfer's done event has been triggered, as the AllOf did."""
    countdown = _fattree_program(cancel_leg)
    monkeypatch.setattr(network, "_join", _allof_join)
    assert countdown == _fattree_program(cancel_leg)
    if cancel_leg:
        assert countdown[1] is not None


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


def test_wanpath_validation():
    with pytest.raises(ValueError):
        WANPath(latency=-1.0, bandwidth=1.0)
    with pytest.raises(ValueError):
        WANPath(latency=0.0, bandwidth=0.0)
