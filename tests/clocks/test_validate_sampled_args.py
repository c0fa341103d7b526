"""``validate_sampled`` refuses a sample size it cannot draw.

A negative *n_pairs* used to come back as a report with
``n_concurrent_pairs == n_pairs`` and ``characterizes`` true; it is a
``ValueError`` now, a non-``int`` one (``bool`` included) a ``TypeError``,
both raised before any pair is drawn or any oracle is built.
"""

import random

import pytest

from repro.clocks import VectorClock, replay
from repro.core import HappenedBeforeOracle
from repro.core.random_executions import random_execution
from repro.topology import generators


def _assignment_and_oracle():
    graph = generators.star(4)
    ex = random_execution(graph, random.Random(3), steps=30, deliver_all=True)
    (vector,) = replay(ex, [VectorClock(4)])
    return vector, HappenedBeforeOracle(ex)


@pytest.mark.parametrize("n_pairs", [-1, -5, -10_000])
def test_negative_sample_size_is_a_value_error(n_pairs):
    vector, oracle = _assignment_and_oracle()
    with pytest.raises(ValueError, match="n_pairs must be >= 0"):
        vector.validate_sampled(oracle, n_pairs=n_pairs)
    with pytest.raises(ValueError, match="n_pairs must be >= 0"):
        vector.validate_sampled(n_pairs=n_pairs)


@pytest.mark.parametrize("n_pairs", [True, False, 2.0, 1e3, "10", None])
def test_non_int_sample_size_is_a_type_error(n_pairs):
    vector, oracle = _assignment_and_oracle()
    with pytest.raises(TypeError, match="n_pairs must be an int"):
        vector.validate_sampled(oracle, n_pairs=n_pairs)


def test_checked_before_the_oracle_is_read(monkeypatch):
    vector, oracle = _assignment_and_oracle()

    def untouchable(*args):
        raise AssertionError("the oracle was queried")

    monkeypatch.setattr(oracle, "happened_before", untouchable)
    monkeypatch.setattr(oracle, "event_count", untouchable)
    with pytest.raises(ValueError):
        vector.validate_sampled(oracle, n_pairs=-1)


def test_zero_is_an_empty_sample():
    vector, oracle = _assignment_and_oracle()
    report = vector.validate_sampled(oracle, n_pairs=0)
    assert report.n_ordered_pairs == report.n_concurrent_pairs == 0
    assert report.false_negatives == report.false_positives == ()
    assert report.characterizes
