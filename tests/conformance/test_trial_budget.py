"""Budgets for one conformance trial, the fuzzer's twin of the hot-path
budgets.

Wall-clock gates flake; what a seeded campaign computes does not.  Taken on
the 60-trial campaign ``fuzz(60, seed=0, max_steps=30, backend="pure")``,
after a warm-up campaign has loaded every module a trial imports lazily.

- Python-level calls (``sys.setprofile``, ``call`` events only, as the
  simulator's budget counts) per trial.  At ``f0c9468`` a trial made 18,774
  on CPython 3.11 (18,178 on 3.12 and 3.13):
  each sampled prefix rebuilt an execution and a batch oracle, every
  finalized stamp was compared with the dataclass ``__eq__`` at every step,
  ``vector_lt`` called ``vector_leq``, and every clock checkpoint pickled its
  stamps through ``dataclasses.fields()``.  Reading each prefix's
  happened-before off the trial's oracle, comparing a stamp by identity
  first, one-frame ``vector_lt`` and stamps that pickle as their
  constructor arguments, it made 14,567 (14,429 at ``0b03faa``; 13,910 on
  3.12, 13,905 on 3.13).  With the pairwise reference reading each event's
  vector clock once instead of asking ``happened_before`` per ordered pair,
  and the store differential reusing the ``vector`` scheme's report, it
  makes 12,181 (11,693 on 3.12, 11,687 on 3.13).
- Execution builds: exactly two per trial, the trial's own and the
  columnar-store differential's (nine at ``f0c9468``).
- A clock checkpoint calls ``dataclasses.fields`` zero times (52 for the
  26 stamps of trial 6 at ``f0c9468``).
"""

import dataclasses
import sys

import pytest

import repro.conformance.fuzzer as fuzzer
from repro.clocks.replay import replay_one
from repro.conformance import fuzz, generate_trial, scheme_by_name
from repro.conformance.registry import star_center_of
from repro.core.random_executions import execution_from_ops

TRIALS = 60
PARENT_CALLS_PER_TRIAL = 18_774
#: measured 12,181 on CPython 3.11 (11,693 on 3.12, 11,687 on 3.13); +5 %
CEILING_CALLS_PER_TRIAL = 12_800


def _campaign():
    return fuzz(TRIALS, seed=0, max_steps=30, backend="pure")


@pytest.fixture(scope="module", autouse=True)
def warm():
    fuzz(3, seed=0, max_steps=30, backend="pure")


def _calls_per_trial():
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = _campaign()
    finally:
        sys.setprofile(previous)
    assert report.ok and report.trials == TRIALS
    return calls / TRIALS


def test_calls_per_trial_stay_under_the_ceiling():
    per_trial = _calls_per_trial()
    assert per_trial <= 0.8 * PARENT_CALLS_PER_TRIAL, per_trial
    assert per_trial <= CEILING_CALLS_PER_TRIAL, per_trial


def test_a_trial_builds_two_executions(monkeypatch):
    builds = 0

    def counting(*args, **kwargs):
        nonlocal builds
        builds += 1
        return execution_from_ops(*args, **kwargs)

    monkeypatch.setattr(fuzzer, "execution_from_ops", counting)
    _campaign()
    assert builds == 2 * TRIALS


@pytest.mark.parametrize("scheme", ["inline-star", "inline-cover"])
def test_a_checkpoint_reads_no_dataclass_fields(monkeypatch, scheme):
    graph, ops, _fifo, _context = generate_trial(
        0, 6, ("star", "tree", "random"), 30
    )
    center = star_center_of(graph)
    assert center is not None
    clock = scheme_by_name(scheme).build(graph, center)
    replay_one(execution_from_ops(graph, ops), clock)
    assert any(ts is not None for row in clock._stamps for ts in row)
    reads = 0
    fields = dataclasses.fields

    def counting(obj):
        nonlocal reads
        reads += 1
        return fields(obj)

    monkeypatch.setattr(dataclasses, "fields", counting)
    clone = scheme_by_name(scheme).build(graph, center)
    clone.restore(clock.checkpoint())
    assert reads == 0
    assert clone._stamps == clock._stamps


if __name__ == "__main__":
    fuzz(3, seed=0, max_steps=30, backend="pure")
    print(f"calls/trial={_calls_per_trial():,.1f}")
