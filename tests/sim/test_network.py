"""Tests for delay models and the simulated network."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.network import (
    ConstantDelay,
    Network,
    PerChannelDelay,
    UniformDelay,
)
from repro.sim.scheduler import EventScheduler


class TestDelayModels:
    def test_constant(self):
        m = ConstantDelay(2.5)
        assert m.sample(0, 1, random.Random(0)) == 2.5

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantDelay(0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_uniform_in_range(self, seed):
        m = UniformDelay(0.5, 1.5)
        d = m.sample(0, 1, random.Random(seed))
        assert 0.5 <= d <= 1.5

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformDelay(2.0, 1.0)

    @pytest.mark.parametrize(
        "model, args",
        [
            (ConstantDelay, (float("nan"),)),
            (ConstantDelay, (float("inf"),)),
            (UniformDelay, (0.5, float("inf"))),
            (UniformDelay, (float("nan"), 1.5)),
            (UniformDelay, (0.5, float("nan"))),
        ],
    )
    def test_non_finite_parameters_are_refused(self, model, args):
        # refused at construction: a NaN would fail far from its cause, at
        # the first sample, and an infinite delay would deliver at t = inf
        with pytest.raises(ValueError, match="finite|inf"):
            model(*args)

    def test_per_channel_override(self):
        m = PerChannelDelay(ConstantDelay(1.0))
        m.set_channel(0, 1, ConstantDelay(9.0))
        rng = random.Random(0)
        assert m.sample(0, 1, rng) == 9.0
        assert m.sample(1, 0, rng) == 1.0

    def test_slow_down_process(self):
        m = PerChannelDelay(ConstantDelay(1.0))
        m.slow_down_process(2, n=4, delay=50.0)
        rng = random.Random(0)
        assert m.sample(2, 0, rng) == 50.0
        assert m.sample(1, 2, rng) == 50.0
        assert m.sample(0, 1, rng) == 1.0


class TestNetwork:
    def test_delivery_after_delay(self):
        sched = EventScheduler()
        net = Network(sched, ConstantDelay(2.0), random.Random(0))
        seen = []
        net.transmit(0, 1, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [2.0]

    def test_fifo_clamping(self):
        """On a FIFO channel a later send never overtakes an earlier one."""
        sched = EventScheduler()

        class Shrinking(ConstantDelay):
            def __init__(self):
                self.values = [5.0, 1.0]

            def sample(self, src, dst, rng):
                return self.values.pop(0)

        net = Network(sched, Shrinking(), random.Random(0))
        order = []
        net.transmit(0, 1, lambda: order.append("first"), fifo=True)
        net.transmit(0, 1, lambda: order.append("second"), fifo=True)
        sched.run()
        assert order == ["first", "second"]

    def test_non_fifo_can_reorder(self):
        sched = EventScheduler()

        class Shrinking(ConstantDelay):
            def __init__(self):
                self.values = [5.0, 1.0]

            def sample(self, src, dst, rng):
                return self.values.pop(0)

        net = Network(sched, Shrinking(), random.Random(0))
        order = []
        net.transmit(0, 1, lambda: order.append("first"))
        net.transmit(0, 1, lambda: order.append("second"))
        sched.run()
        assert order == ["second", "first"]

    def test_fifo_tie_is_broken_strictly(self):
        """Regression: two same-instant sends with equal delay used to tie
        at the watermark, leaving FIFO order to scheduler insertion order;
        the second delivery must be pushed strictly later."""
        sched = EventScheduler()
        net = Network(sched, ConstantDelay(1.0), random.Random(0))
        t1 = net.transmit(0, 1, lambda: None, fifo=True)
        t2 = net.transmit(0, 1, lambda: None, fifo=True)
        assert t1 == 1.0
        assert t2 > t1

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_a_delay_that_is_not_positive(self, bad):
        class Fixed(ConstantDelay):
            def sample(self, src, dst, rng):
                return bad

        sched = EventScheduler()
        net = Network(sched, Fixed(), random.Random(0))
        with pytest.raises(ValueError, match="positive"):
            net.transmit(0, 1, lambda: None)
        assert sched.pending == 0

    def test_rejects_an_infinite_delay(self):
        class Forever(ConstantDelay):
            def sample(self, src, dst, rng):
                return float("inf")

        sched = EventScheduler()
        net = Network(sched, Forever(), random.Random(0))
        with pytest.raises(ValueError, match="finite"):
            net.transmit(0, 1, lambda: None)
        assert sched.pending == 0

    def test_transmit_passes_the_arguments_through(self):
        sched = EventScheduler()
        net = Network(sched, ConstantDelay(1.0), random.Random(0))
        seen = []
        net.transmit(0, 1, seen.append, "m0", fifo=True)
        net.transmit(0, 1, lambda a, b: seen.append(a + b), 1, 2)
        sched.run()
        assert seen == ["m0", 3]
