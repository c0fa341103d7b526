"""Property suite: interrupted-and-resumed runs are byte-identical.

The fabric's headline guarantee is that the result store is a pure
function of the sweep — independent of placement, worker count, retry
history, and interruption points.  Hypothesis drives randomized kill
points (and kill-point *sequences*) through the deterministic
``REPRO_FABRIC_TEST_INTERRUPT`` hook and asserts the resumed store's digest equals
the uninterrupted reference, cell for cell, byte for byte.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.fabric import (
    FabricInterrupted,
    ResultStore,
    run_fabric,
)
from repro.fabric.coordinator import INTERRUPT_ENV
from repro.fabric.drivers import selftest_specs

N_CELLS = 7


def _interrupted_run(specs, store, after, **kwargs):
    """Run until the test hook stops it after *after* completions."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(INTERRUPT_ENV, str(after))
        with pytest.raises(FabricInterrupted) as exc_info:
            run_fabric(specs, store, **kwargs)
    return exc_info.value


@pytest.fixture(scope="module")
def reference_digest(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("ref") / "store")
    run_fabric(selftest_specs(N_CELLS), store)
    return store.digest()


@given(kill_after=st.integers(min_value=1, max_value=N_CELLS - 1))
@settings(max_examples=15, deadline=None)
def test_single_interrupt_resume_is_byte_identical(
    tmp_path_factory, reference_digest, kill_after
):
    specs = selftest_specs(N_CELLS)
    store = ResultStore(tmp_path_factory.mktemp("case") / "store")
    assert _interrupted_run(specs, store, kill_after).done == kill_after
    assert len(store) == kill_after
    report = run_fabric(specs, store, resume=True)
    assert report.stats["cells_resumed"] == kill_after
    assert store.digest() == reference_digest


@given(
    kills=st.lists(
        st.integers(min_value=1, max_value=2), min_size=1, max_size=3
    )
)
@settings(max_examples=10, deadline=None)
def test_repeated_interrupts_then_resume(
    tmp_path_factory, reference_digest, kills
):
    # crash after a few more cells, several times in a row, then finish:
    # every intermediate store is a valid resume point
    specs = selftest_specs(N_CELLS)
    store = ResultStore(tmp_path_factory.mktemp("case") / "store")
    resumed = False
    for step in kills:
        if len(store) >= N_CELLS:
            break
        target = min(step, N_CELLS - len(store) - 1)
        if target < 1:
            break
        _interrupted_run(specs, store, target, resume=resumed)
        resumed = True
    run_fabric(specs, store, resume=resumed)
    assert store.digest() == reference_digest


@given(
    kill_after=st.integers(min_value=1, max_value=N_CELLS - 1),
    workers=st.integers(min_value=2, max_value=3),
)
@settings(max_examples=5, deadline=None)
def test_parallel_interrupt_resume_is_byte_identical(
    tmp_path_factory, reference_digest, kill_after, workers
):
    specs = selftest_specs(N_CELLS)
    store = ResultStore(tmp_path_factory.mktemp("case") / "store")
    _interrupted_run(specs, store, kill_after, workers=workers)
    # a parallel interrupt may land with >= kill_after cells stored
    # (in-flight completions drain); resume from whatever survived
    assert len(store) >= kill_after
    run_fabric(specs, store, resume=True, workers=workers)
    assert store.digest() == reference_digest


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_distinct_sweeps_never_collide(tmp_path_factory, seed):
    # key-space sanity under the property lens: two sweeps with different
    # seeds share no cell keys, so one store can hold both
    from repro.fabric import cell_key

    a = {cell_key(s) for s in selftest_specs(4, seed=seed)}
    b = {cell_key(s) for s in selftest_specs(4, seed=seed + 1)}
    assert not (a & b)
