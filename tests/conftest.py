"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.random_executions import random_execution
from repro.topology import generators
from tests.helpers import ORACLE_KINDS, make_oracle

try:
    from hypothesis import settings

    # CI runners are slow and noisy: disable the per-example deadline (it
    # produces flaky DeadlineExceeded failures under load) and trim the
    # example budget.  ``derandomize`` keeps shrink output reproducible
    # across re-runs of the same commit.
    settings.register_profile(
        "ci", deadline=None, max_examples=25, derandomize=True
    )
    settings.register_profile("dev", deadline=None)
    # REPRO_HYPOTHESIS_PROFILE pins the profile explicitly (the CI
    # composite action sets it to "ci" in one place for every job);
    # otherwise fall back to the CI env heuristic
    _profile = os.environ.get("REPRO_HYPOTHESIS_PROFILE")
    if _profile:
        settings.load_profile(_profile)
    else:
        settings.load_profile("ci" if os.environ.get("CI") else "dev")
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pass


@pytest.fixture
def star4():
    return generators.star(4)


@pytest.fixture
def star6():
    return generators.star(6)


@pytest.fixture
def double_star():
    return generators.double_star(2, 3)


@pytest.fixture
def small_star_execution(star4):
    """A hand-built star execution exercising all event kinds.

    p1 --m0--> p0 --m1--> p2,  p3 local,  p2 --m2--> p0,  p0 --m3--> p1.
    """
    b = ExecutionBuilder(4, graph=star4)
    m0 = b.send(1, 0)
    b.local(3)
    b.receive(0, m0)
    m1 = b.send(0, 2)
    b.receive(2, m1)
    m2 = b.send(2, 0)
    b.receive(0, m2)
    m3 = b.send(0, 1)
    b.receive(1, m3)
    b.local(1)
    return b.freeze()


@pytest.fixture
def small_oracle(small_star_execution):
    return HappenedBeforeOracle(small_star_execution)


def make_random_execution(graph, seed, steps=30, deliver_all=False):
    """Deterministic random execution for a given seed."""
    return random_execution(
        graph, random.Random(seed), steps=steps, deliver_all=deliver_all
    )


@pytest.fixture(scope="session")
def oracles_for():
    """``oracles_for(execution)``: one oracle of each kind a cut query takes
    (batch, frozen, streaming mid-run — :func:`tests.helpers.make_oracle`).
    Tests loop over them instead of being parametrised, so a test keeps the
    one id it has always had; session-scoped, so hypothesis tests may take
    it."""
    return lambda execution: [
        make_oracle(kind, execution) for kind in ORACLE_KINDS
    ]
