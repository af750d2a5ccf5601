"""Discrete-event simulation kernel for the SWEB reproduction.

Public surface:

* :class:`Simulator`, :class:`Event`, :class:`Process`, :func:`join` —
  the event loop, the process model and the one way to wait on several
  events (:mod:`repro.sim.engine`).
* :class:`FairShareServer` — processor-sharing stations, the model behind
  CPUs, disks and links (:mod:`repro.sim.bandwidth`).
* :class:`RandomStreams` — deterministic named substreams.
* :class:`Summary`, :class:`PhaseAccumulator` — sample summaries and
  per-phase cost totals.
* :class:`Monitor` — periodic probes of model state.
"""

from .engine import (
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    NORMAL,
    URGENT,
    join,
)
from .bandwidth import FairShareServer, Job
from .monitor import Monitor, ascii_series, ascii_sparkline
from .rng import RandomStreams
from .stats import PhaseAccumulator, Summary
from .streamnames import STREAM_NAMES, crc32_key, stream_collisions

__all__ = [
    "Event",
    "FairShareServer",
    "Job",
    "Monitor",
    "NORMAL",
    "PhaseAccumulator",
    "Process",
    "RandomStreams",
    "STREAM_NAMES",
    "SimulationError",
    "Simulator",
    "Summary",
    "Timeout",
    "URGENT",
    "ascii_series",
    "ascii_sparkline",
    "crc32_key",
    "join",
    "stream_collisions",
]
