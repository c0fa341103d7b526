"""A lease timeout must be a positive, finite number of seconds.

``run_fabric`` used to spawn its workers with a NaN timeout and die in the
heartbeat arithmetic (``ValueError`` for NaN, ``OverflowError`` for ∞), and
its serial path took a NaN without a word.  Both paths and the queue itself
refuse one now, before any cell runs or any worker starts.
"""

from __future__ import annotations

import math

import pytest

from repro.fabric import ResultStore, WorkQueue, coordinator, run_fabric
from repro.fabric.drivers import selftest_specs

BAD = [math.nan, math.inf, -math.inf, 0.0, -1.0]
MESSAGE = "lease_timeout must be positive and finite"


@pytest.mark.parametrize("lease_timeout", BAD)
def test_queue_refuses(lease_timeout):
    with pytest.raises(ValueError, match=MESSAGE):
        WorkQueue({"k": {"kind": "fabric-selftest"}}, lease_timeout=lease_timeout)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("lease_timeout", BAD)
def test_run_fabric_refuses_before_any_work(tmp_path, monkeypatch, workers,
                                            lease_timeout):
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker context was requested")

    def no_cells(spec):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(coordinator.multiprocessing, "get_context", no_workers)
    store = ResultStore(tmp_path / "store")
    with pytest.raises(ValueError, match=MESSAGE):
        run_fabric(selftest_specs(3), store, executor=no_cells,
                   workers=workers, lease_timeout=lease_timeout)
    assert store.digest() == ResultStore(tmp_path / "empty").digest()


def test_finite_timeout_still_runs(tmp_path):
    report = run_fabric(selftest_specs(2), ResultStore(tmp_path / "s"),
                        lease_timeout=1e-3)
    assert report.stats["cells_done"] == 2
