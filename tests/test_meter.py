"""The budgets' meter counts what it is asked to, whatever ran before it."""

import gc
import sys

import pytest

from tests import meter

N = 500


def _leaf():
    return None


def _calls(n=N):
    """A run that makes *n* Python-level calls and *n* builtin ones."""

    def run():
        for _ in range(n):
            _leaf()
            len(())

    return run


def _garbage():
    """A run that leaves enough reference cycles to start a collection."""

    def run():
        for _ in range(5_000):
            cycle = []
            cycle.append(cycle)

    return run


def test_n_calls_count_n_and_the_run_itself():
    assert meter.calls(_calls)[0] == N + 1
    # and the builtin call that ends the count, dispatched while counted
    assert meter.calls(_calls, c_calls=True)[0] == 2 * N + 2


def test_two_counts_in_a_row_are_equal():
    assert meter.calls(_calls) == meter.calls(_calls)
    assert meter.instructions(_calls) == meter.instructions(_calls)


def test_a_collection_hook_lands_outside_the_count():
    quiet, collections = meter.calls(_garbage)[0], []
    gc.callbacks.append(lambda phase, _info: collections.append(phase))
    try:
        assert meter.calls(_garbage)[0] == quiet
    finally:
        gc.callbacks.pop()
    assert collections  # the uncounted run, collector on, did collect


def test_the_previous_profiler_and_tracer_are_restored():
    def fail():
        raise RuntimeError("the counted run failed")

    def factory():  # the uncounted run passes, the counted one raises
        return iter((_calls(1), fail)).__next__

    profiler, tracer = sys.getprofile(), sys.gettrace()
    with pytest.raises(RuntimeError, match="counted"):
        meter.calls(factory())
    with pytest.raises(RuntimeError, match="counted"):
        meter.instructions(factory())
    assert (sys.getprofile(), sys.gettrace()) == (profiler, tracer)
    assert gc.isenabled()
