"""Unit tests for the disk model (repro.cluster.disk)."""

import pytest

from repro.cluster import Disk
from repro.sim import Simulator


def test_single_read_time():
    sim = Simulator()
    disk = Disk(sim, bandwidth=5e6)
    log = []

    def go():
        yield disk.read(1.5e6)
        log.append(sim.now)

    sim.spawn(go())
    sim.run()
    assert log == [pytest.approx(0.3)]


def test_concurrent_reads_share_channel():
    sim = Simulator()
    disk = Disk(sim, bandwidth=10e6)
    log = []

    def go(tag):
        yield disk.read(10e6)
        log.append((tag, sim.now))

    sim.spawn(go("a"))
    sim.spawn(go("b"))
    sim.run()
    # Two 10 MB reads on a 10 MB/s channel: both finish at t=2.
    assert log == [("a", pytest.approx(2.0)), ("b", pytest.approx(2.0))]


def test_channel_load_and_effective_bandwidth():
    sim = Simulator()
    disk = Disk(sim, bandwidth=8e6)
    assert disk.channel_load == 0
    disk.read(1e6)
    disk.read(1e6)
    assert disk.channel_load == 2


def test_read_statistics():
    sim = Simulator()
    disk = Disk(sim, bandwidth=5e6)

    def go():
        yield disk.read(2e6)
        yield disk.read(3e6)

    sim.spawn(go())
    sim.run()
    assert disk.reads == 2
    assert disk.bytes_read == pytest.approx(5e6)
    assert disk.server.busy_integral() == pytest.approx(1.0)


def test_allocate_capacity_enforced():
    sim = Simulator()
    disk = Disk(sim, bandwidth=5e6, capacity=100.0)
    disk.allocate(60.0)
    with pytest.raises(ValueError):
        disk.allocate(50.0)
    disk.allocate(40.0)
    assert disk.used_bytes == pytest.approx(100.0)


def test_invalid_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        Disk(sim, bandwidth=0.0)
    disk = Disk(sim, bandwidth=1.0)
    with pytest.raises(ValueError):
        disk.read(-5.0)
