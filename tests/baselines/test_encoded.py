"""Tests for the prime-encoded single-integer clock."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import EncodedClock
from repro.baselines.encoded import first_primes
from repro.baselines.encoded import EncodedTimestamp
from repro.clocks import VectorClock, replay, replay_one
from repro.core.random_executions import random_execution
from repro.topology import generators


class TestPrimes:
    def test_first_primes(self):
        assert first_primes(6) == [2, 3, 5, 7, 11, 13]

    def test_empty(self):
        assert first_primes(0) == []


class TestEncoding:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_characterizes(self, seed):
        rng = random.Random(seed)
        g = generators.erdos_renyi(5, 0.4, rng)
        ex = random_execution(g, rng, steps=25)
        assert replay_one(ex, EncodedClock(5)).validate().characterizes

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_value_encodes_vector_clock(self, seed):
        """The integer's prime factorization is exactly the vector clock."""
        rng = random.Random(seed)
        g = generators.star(4)
        ex = random_execution(g, rng, steps=20)
        enc_asg, vec_asg = replay(ex, [EncodedClock(4), VectorClock(4)])
        primes = first_primes(4)
        for ev in ex.all_events():
            value = enc_asg[ev.eid].value
            vec = vec_asg[ev.eid].vector
            expected = 1
            for p, v in zip(primes, vec):
                expected *= p**v
            assert value == expected

    def test_divisibility_comparison(self):
        a = EncodedTimestamp(6)  # 2*3
        b = EncodedTimestamp(12)  # 2^2*3
        assert a.precedes(b)
        assert not b.precedes(a)
        assert not a.precedes(EncodedTimestamp(10))  # 2*5: incomparable

    def test_equal_values_not_ordered(self):
        a = EncodedTimestamp(6)
        assert not a.precedes(EncodedTimestamp(6))

    def test_bits_grow_with_history(self):
        """The single 'element' hides unbounded bit growth."""
        rng = random.Random(3)
        g = generators.star(6)
        clock = EncodedClock(6)
        ex = random_execution(g, rng, steps=80, deliver_all=True)
        asg = replay_one(ex, clock)
        bits = [
            clock.timestamp_bits(ts, ex.max_events_per_process())
            for _eid, ts in asg.items()
        ]
        assert asg.max_elements() == 1
        # far beyond what a vector clock would need for this history
        from repro.analysis import vector_bits

        assert max(bits) > vector_bits(6, ex.max_events_per_process())
