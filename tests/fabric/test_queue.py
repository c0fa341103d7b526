"""WorkQueue state machine: leases, heartbeats, expiry, retry budget."""

from __future__ import annotations

import pytest

from repro.fabric.queue import CellFailed, WorkQueue


def _cells(n: int) -> dict:
    return {f"{i:024x}": {"kind": "t", "index": i} for i in range(n)}


def test_lease_follows_input_order():
    q = WorkQueue(_cells(3))
    k0, _ = q.lease("w0", now=0.0)
    k1, _ = q.lease("w1", now=0.0)
    assert [k0, k1] == list(_cells(3))[:2]


def test_lease_none_when_everything_is_out():
    q = WorkQueue(_cells(1))
    assert q.lease("w0", now=0.0) is not None
    assert q.lease("w1", now=0.0) is None


def test_complete_is_idempotent_and_any_worker():
    q = WorkQueue(_cells(1))
    key, _ = q.lease("w0", now=0.0)
    # a reassigned straggler may complete under a different name
    assert q.complete(key, "w1") is True
    assert q.complete(key, "w0") is False
    assert q.all_done()


def test_heartbeat_renews_and_rejects_stale_holder():
    q = WorkQueue(_cells(1), lease_timeout=10.0)
    key, _ = q.lease("w0", now=0.0)
    assert q.heartbeat(key, "w0", now=5.0) is True
    assert not q.expire(now=14.0)  # renewed to 15.0
    assert q.heartbeat(key, "w1", now=5.0) is False  # not the holder
    assert q.heartbeat("f" * 24, "w0", now=5.0) is False  # unknown key


def test_expire_requeues_and_counts_reassignment():
    q = WorkQueue(_cells(2), lease_timeout=10.0)
    key, _ = q.lease("w0", now=0.0)
    assert q.expire(now=10.0) == [key]
    assert q.reassigned == 1
    # the expired cell is pending again, ahead of nothing it shouldn't be
    key2, _ = q.lease("w1", now=11.0)
    assert key2 == key


def test_release_worker_requeues_all_of_its_leases():
    q = WorkQueue(_cells(3))
    ka, _ = q.lease("w0", now=0.0)
    kb, _ = q.lease("w0", now=0.0)
    kc, _ = q.lease("w1", now=0.0)
    released = q.release_worker("w0")
    assert sorted(released) == sorted([ka, kb])
    assert q.worker_of(kc) == "w1"
    assert q.pending_count() == 2


def test_fail_attempt_requeues_until_budget_exhausted():
    q = WorkQueue(_cells(1), max_retries=1)
    key, _ = q.lease("w0", now=0.0)
    q.fail_attempt(key, "w0", "boom 1")
    assert q.failure() is None
    assert q.retried == 1
    key2, _ = q.lease("w0", now=1.0)
    assert key2 == key
    q.fail_attempt(key, "w0", "boom 2")
    failure = q.failure()
    assert isinstance(failure, CellFailed)
    assert failure.key == key
    assert failure.errors == ["boom 1", "boom 2"]
    assert q.lease("w1", now=2.0) is None  # failed run hands out nothing


def test_mixed_reassign_and_error_share_attempt_budget():
    q = WorkQueue(_cells(1), lease_timeout=5.0, max_retries=1)
    key, _ = q.lease("w0", now=0.0)
    assert q.expire(now=5.0) == [key]  # attempt 1: lease timeout
    q.lease("w1", now=6.0)
    q.fail_attempt(key, "w1", "boom")  # attempt 2: error -> budget gone
    assert q.failure() is not None


def test_repeated_failures_accumulate_without_corruption():
    q = WorkQueue(_cells(2), max_retries=0)
    key, _ = q.lease("w0", now=0.0)
    q.fail_attempt(key, "w0", "boom")
    assert q.failure() is not None
    # further reports on the doomed cell keep the full error history
    q.fail_attempt(key, "w0", "boom again")
    assert q.failure().errors == ["boom", "boom again"]


def test_depth_and_done_count():
    q = WorkQueue(_cells(3))
    assert q.depth() == 3
    key, _ = q.lease("w0", now=0.0)
    assert q.depth() == 3  # leased cells still count as not-done
    q.complete(key, "w0")
    assert q.depth() == 2
    assert q.done_count() == 1
    assert not q.all_done()


def test_constructor_validation():
    with pytest.raises(ValueError):
        WorkQueue(_cells(1), lease_timeout=0.0)
    with pytest.raises(ValueError):
        WorkQueue(_cells(1), max_retries=-1)


def test_expired_then_completed_not_requeued_again():
    q = WorkQueue(_cells(1), lease_timeout=5.0)
    key, _ = q.lease("w0", now=0.0)
    q.expire(now=5.0)
    q.lease("w1", now=6.0)
    q.complete(key, "w1")
    # the straggler's stale lease must not resurrect the done cell
    assert q.expire(now=100.0) == []
    assert q.all_done()


def test_straggler_error_does_not_requeue_a_cell_held_elsewhere():
    q = WorkQueue(_cells(1), lease_timeout=5.0)
    key, _ = q.lease("A", now=0.0)
    q.expire(now=5.0)
    q.lease("B", now=6.0)
    # A's lease expired while it hung; its late error must not put the
    # cell B holds back in the queue for a third worker
    q.fail_attempt(key, "A", "late boom")
    assert q.pending_count() == 0
    assert q.lease("C", now=7.0) is None
    assert q.worker_of(key) == "B"
    assert q.heartbeat(key, "B", now=7.0) is True
    assert q.failure() is None
    assert q.retried == 0
