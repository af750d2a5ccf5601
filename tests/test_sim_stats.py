"""Unit tests for metrics primitives (repro.sim.stats)."""

import math

import pytest

from repro.sim import PhaseAccumulator, Summary


# ------------------------------------------------------------------ Summary
def test_summary_of_values():
    s = Summary.of([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == pytest.approx(2.5)
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.total == pytest.approx(10.0)
    assert s.p50 == pytest.approx(2.5)


def test_summary_empty():
    s = Summary.of([])
    assert s.count == 0
    assert math.isnan(s.mean)
    assert s.total == 0.0


# -------------------------------------------------------- PhaseAccumulator
def test_phase_accumulator():
    pa = PhaseAccumulator()
    pa.record("preprocess", 0.07)
    pa.record("preprocess", 0.07)
    pa.record("transfer", 4.9)
    assert pa.total("preprocess") == pytest.approx(0.14)
    assert pa.count("preprocess") == 2
    assert pa.mean("preprocess") == pytest.approx(0.07)
    assert pa.phases() == ["preprocess", "transfer"]


def test_phase_accumulator_rejects_negative():
    pa = PhaseAccumulator()
    with pytest.raises(ValueError):
        pa.record("x", -1.0)
