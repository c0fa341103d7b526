"""Tests for the shared clock-algorithm machinery."""

import math

import pytest

from repro.clocks import VectorClock
from repro.clocks.base import (
    ClockAlgorithm,
    _count_elements,
    vector_leq,
    vector_lt,
)
from repro.clocks.vector import VectorTimestamp


class TestPayloadAccounting:
    def test_scalars(self):
        assert _count_elements(5) == 1
        assert _count_elements(2.5) == 1
        assert _count_elements(None) == 0

    def test_nested(self):
        assert _count_elements((1, 2, (3, 4))) == 4
        assert _count_elements([1, [2, [3]]]) == 3
        assert _count_elements({"a": 1, "b": (2, 3)}) == 5  # keys count too

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            _count_elements(object())

    def test_clock_payload_elements(self):
        vc = VectorClock(3)
        assert vc.payload_elements((1, 2, 3)) == 3


class TestTimestampBits:
    def test_default_accounting(self):
        vc = VectorClock(4)
        ts = VectorTimestamp((1, 2, 3, 4))
        # 4 elements x ceil(log2(K+1)) bits
        assert vc.timestamp_bits(ts, max_events=7) == 4 * 3
        assert vc.timestamp_bits(ts, max_events=8) == 4 * 4

    def test_minimum_one_bit(self):
        vc = VectorClock(1)
        ts = VectorTimestamp((0,))
        assert vc.timestamp_bits(ts, max_events=0) == 1


class TestBaseValidation:
    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            VectorClock(0)

    def test_control_unsupported_by_default(self):
        vc = VectorClock(2)
        with pytest.raises(NotImplementedError):
            vc.on_control(0, 1, None)
