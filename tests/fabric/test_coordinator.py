"""run_fabric: placement equivalence, fault knobs, interruption, retries."""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import pytest

from repro.fabric import (
    CellFailed,
    FabricInterrupted,
    ResultStore,
    cell_key,
    run_fabric,
)
from repro.fabric import coordinator
from repro.fabric.coordinator import HANG_ENV, INTERRUPT_ENV, KILL_ENV
from repro.fabric.drivers import selftest_specs
from repro.obs.metrics import MetricsRegistry, use_registry


def _slow_specs(count, sleep):
    """Self-test cells that each sleep *sleep* seconds, so workers overlap."""
    return [dict(spec, sleep=sleep) for spec in selftest_specs(count)]


def _reference_digest(tmp_path, specs):
    store = ResultStore(tmp_path / "reference")
    run_fabric(specs, store)
    return store.digest()


def test_serial_run_completes_and_orders_keys(tmp_path):
    specs = selftest_specs(5)
    store = ResultStore(tmp_path / "s")
    report = run_fabric(specs, store)
    assert report.keys == [cell_key(s) for s in specs]
    assert [r["index"] for r in report.iter_results()] == list(range(5))
    assert report.stats["cells_done"] == 5


def test_parallel_matches_serial_digest(tmp_path):
    specs = selftest_specs(9)
    expected = _reference_digest(tmp_path, specs)
    store = ResultStore(tmp_path / "p")
    report = run_fabric(specs, store, workers=3, lease_timeout=30.0)
    assert store.digest() == expected
    assert report.stats["cells_done"] == 9


def test_duplicate_specs_rejected(tmp_path):
    specs = selftest_specs(2) + selftest_specs(1)
    with pytest.raises(ValueError, match="duplicate cell spec"):
        run_fabric(specs, ResultStore(tmp_path / "d"))


def test_resume_false_refuses_populated_store(tmp_path):
    specs = selftest_specs(3)
    store = ResultStore(tmp_path / "s")
    run_fabric(specs, store)
    with pytest.raises(ValueError, match=r"already holds 3 cell\(s\).*--resume"):
        run_fabric(specs, store)


def test_resume_skips_completed_cells(tmp_path, monkeypatch):
    specs = selftest_specs(6)
    store = ResultStore(tmp_path / "s")
    monkeypatch.setenv(INTERRUPT_ENV, "2")
    with pytest.raises(FabricInterrupted) as exc_info:
        run_fabric(specs, store)
    monkeypatch.delenv(INTERRUPT_ENV)
    assert exc_info.value.done == 2
    assert len(store) == 2
    registry = MetricsRegistry()
    with use_registry(registry):
        report = run_fabric(specs, store, resume=True)
    assert report.stats["cells_resumed"] == 2
    assert report.stats["cells_done"] == 4
    assert store.digest() == _reference_digest(tmp_path, specs)
    export = registry.as_dict()
    assert export["counters"]["fabric.cells_resumed"] == 2
    assert export["counters"]["fabric.cells_done"] == 4


def test_failing_cell_exhausts_retry_budget(tmp_path):
    calls = []

    def flaky(spec):
        calls.append(spec["index"])
        raise RuntimeError("always broken")

    specs = selftest_specs(2)
    with pytest.raises(CellFailed) as exc_info:
        run_fabric(
            specs, ResultStore(tmp_path / "f"),
            executor=flaky,
        )
    # initial attempt + MAX_RETRIES retries, then stop
    assert calls == [0] * (1 + coordinator.MAX_RETRIES)
    assert len(exc_info.value.errors) == 3


def test_transient_failure_is_retried_to_success(tmp_path):
    attempts = {"n": 0}

    def flaky_once(spec):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("transient")
        return {"index": spec["index"]}

    specs = selftest_specs(1)
    store = ResultStore(tmp_path / "t")
    report = run_fabric(specs, store, executor=flaky_once)
    assert report.stats["cells_retried"] == 1
    assert store.get(report.keys[0]) == {"index": 0}


def test_sigkilled_worker_is_reaped_and_cells_recovered(
    tmp_path, monkeypatch
):
    specs = _slow_specs(8, 0.02)
    expected = _reference_digest(tmp_path, specs)
    monkeypatch.setenv(KILL_ENV, "0:1")  # worker 0 dies after one cell
    store = ResultStore(tmp_path / "k")
    report = run_fabric(specs, store, workers=2, lease_timeout=5.0)
    assert store.digest() == expected
    assert report.stats["workers_spawned"] >= 3  # the respawn happened


def test_hung_worker_lease_expires_and_reassigns(tmp_path, monkeypatch):
    specs = selftest_specs(6)
    expected = _reference_digest(tmp_path, specs)
    monkeypatch.setenv(HANG_ENV, "0")  # worker 0 hangs on its first cell
    store = ResultStore(tmp_path / "h")
    report = run_fabric(specs, store, workers=2, lease_timeout=1.0)
    assert store.digest() == expected
    assert report.stats["cells_reassigned"] >= 1


def test_interrupt_in_coordinated_mode_is_resumable(tmp_path, monkeypatch):
    specs = _slow_specs(8, 0.01)
    monkeypatch.setenv(INTERRUPT_ENV, "2")
    with pytest.raises(FabricInterrupted):
        run_fabric(specs, ResultStore(tmp_path / "i"), workers=2)
    monkeypatch.delenv(INTERRUPT_ENV)
    store = ResultStore(tmp_path / "i")
    run_fabric(specs, store, workers=2, resume=True)
    assert store.digest() == _reference_digest(tmp_path, specs)


def test_interrupt_threshold_is_never_overshot(tmp_path, monkeypatch):
    # draining every worker before testing the threshold once per turn let
    # one turn take the count from N-2 to N, and the run completed instead
    # of stopping: the threshold is tested after each single completion
    specs = selftest_specs(6)
    monkeypatch.setenv(INTERRUPT_ENV, str(len(specs) - 1))
    for run in range(25):
        store = ResultStore(tmp_path / f"overshoot-{run}")
        with pytest.raises(FabricInterrupted) as exc_info:
            run_fabric(specs, store, workers=2)
        assert exc_info.value.done == len(specs) - 1
        assert exc_info.value.remaining == 1


def test_coordinator_waits_on_events_not_on_a_tick(tmp_path, monkeypatch):
    # the only sleep repro.fabric.coordinator may make is the worker-side
    # REPRO_FABRIC_TEST_HANG hook, which is not set here; workers are
    # forked after the patch, so a sleep on either side is recorded (in
    # the worker it fails the cell, which the stats below would show)
    slept = []

    def no_sleep(seconds):
        slept.append(seconds)
        raise AssertionError(f"time.sleep({seconds}) in the coordinator")

    monkeypatch.delenv(HANG_ENV, raising=False)
    monkeypatch.setattr(
        coordinator, "time",
        SimpleNamespace(monotonic=time.monotonic, sleep=no_sleep),
    )
    specs = selftest_specs(50)
    store = ResultStore(tmp_path / "events")
    report = run_fabric(specs, store, workers=2)
    assert slept == []
    assert report.stats["cells_done"] == 50
    assert report.stats["cells_retried"] == 0
    assert report.stats["cells_reassigned"] == 0
    assert report.stats["workers_spawned"] == 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("raw", ["0", "-2"], ids=["test-hook-0", "test-hook-minus-2"])
def test_interrupt_before_the_first_cell_is_refused(
    tmp_path, monkeypatch, workers, raw
):
    # a threshold below 1 used to stop a serial run after one cell and a
    # two-worker run after none: it is refused the same on every placement
    monkeypatch.setenv(INTERRUPT_ENV, raw)
    store = ResultStore(tmp_path / "early")
    with pytest.raises(ValueError, match="expected N"):
        run_fabric(selftest_specs(5, seed=1), store, workers=workers)
    assert len(store) == 0


@pytest.mark.parametrize(
    "var, raw",
    [
        (KILL_ENV, "x"),
        (KILL_ENV, "0:-3"),
        (KILL_ENV, "-1:1"),
        (HANG_ENV, "x"),
        (INTERRUPT_ENV, "abc"),
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_malformed_test_hook_is_refused_before_any_cell(
    tmp_path, monkeypatch, var, raw, workers
):
    # KILL=x killed every worker at start and was reported as a failed
    # cell; KILL=0:-3 ran as 0:1; INTERRUPT=abc was a bare int() error
    monkeypatch.setenv(var, raw)
    store = ResultStore(tmp_path / "hook")
    with pytest.raises(ValueError, match=f"^{var}={raw!r}: expected "):
        run_fabric(selftest_specs(4), store, workers=workers)
    assert len(store) == 0


def test_kill_hook_without_a_count_kills_after_one_cell(tmp_path, monkeypatch):
    specs = _slow_specs(6, 0.02)
    monkeypatch.setenv(KILL_ENV, "1")
    store = ResultStore(tmp_path / "k1")
    report = run_fabric(specs, store, workers=2, lease_timeout=5.0)
    assert store.digest() == _reference_digest(tmp_path, specs)
    assert report.stats["workers_spawned"] >= 3


@pytest.mark.parametrize("workers", [0, -1])
def test_too_few_workers_rejected(tmp_path, workers):
    with pytest.raises(ValueError, match=r"workers must be >= 1"):
        run_fabric(
            selftest_specs(1), ResultStore(tmp_path / "z"), workers=workers
        )


def test_mixing_sweeps_in_one_store_is_fine(tmp_path):
    store = ResultStore(tmp_path / "mixed")
    run_fabric(selftest_specs(2, seed=0), store)
    # a different sweep (different seed) shares the directory untroubled
    run_fabric(selftest_specs(2, seed=1), store)
    assert len(store) == 4


def _blas_threads_of(spec):
    """An executor that reports the BLAS pool size the worker would start."""
    return {
        "index": spec["index"],
        "blas": [os.environ.get(var) for var in coordinator._BLAS_THREAD_VARS],
    }


def test_a_worker_starts_no_blas_thread_pool(tmp_path, monkeypatch):
    for var in coordinator._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    store = ResultStore(tmp_path / "blas")
    report = run_fabric(
        selftest_specs(6), store, executor=_blas_threads_of, workers=2,
        lease_timeout=30.0,
    )
    assert [r["blas"] for r in report.iter_results()] == [["1", "1", "1"]] * 6
    # the coordinator's own environment is untouched
    assert not any(os.environ.get(v) for v in coordinator._BLAS_THREAD_VARS)


def test_a_chosen_blas_pool_size_is_kept(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    report = run_fabric(
        selftest_specs(2), ResultStore(tmp_path / "kept"),
        executor=_blas_threads_of, workers=2, lease_timeout=30.0,
    )
    assert {r["blas"][0] for r in report.iter_results()} == {"2"}
