"""Lease-based work queue: the coordinator's bookkeeping core.

Pure state machine, no processes and no sockets — the multiprocess
coordinator (:mod:`repro.fabric.coordinator`) drives this one object.
It is free of I/O and guards its state with a single internal lock.

Cell lifecycle::

    pending --lease--> leased --complete--> done
       ^                  |
       |                  +-- lease timeout / worker death / error
       +---- requeued (attempts += 1; FAILED once attempts > max_retries)

Leases are renewed by heartbeats; :meth:`WorkQueue.expire` sweeps
overdue leases back to pending, which is how both crashed workers and
stragglers are handled — the cell is simply handed to someone else.
Because cells are deterministic and the result store is idempotent, a
straggler that eventually finishes a reassigned cell does no harm.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple


class CellFailed(RuntimeError):
    """A cell exhausted its retry budget.

    Carries the worker-side tracebacks of every attempt so a sweep
    failure names the cell *and* the reason, not just a dead worker.
    """

    def __init__(self, key: str, spec: Mapping[str, Any],
                 errors: List[str]) -> None:
        self.key = key
        self.spec = dict(spec)
        self.errors = list(errors)
        last = errors[-1].strip().splitlines()[-1] if errors else "no error"
        super().__init__(
            f"fabric cell {key} ({spec.get('kind', '?')}) failed after "
            f"{len(errors)} error(s): {last}"
        )


@dataclass
class _Lease:
    worker: str
    deadline: float


@dataclass
class _CellState:
    spec: Mapping[str, Any]
    index: int                      # input order, for deterministic dispatch
    attempts: int = 0               # errors + reassignments consumed
    errors: List[str] = field(default_factory=list)


class WorkQueue:
    """Pending/leased/done bookkeeping for one fabric run."""

    def __init__(
        self,
        cells: Mapping[str, Mapping[str, Any]],
        lease_timeout: float = 60.0,
        max_retries: int = 2,
    ) -> None:
        # written so that NaN fails too: it compares false both ways
        if not 0 < lease_timeout < math.inf:
            raise ValueError("lease_timeout must be positive and finite")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.lease_timeout = lease_timeout
        self.max_retries = max_retries
        self._lock = threading.Lock()
        self._cells: Dict[str, _CellState] = {
            key: _CellState(spec=dict(spec), index=i)
            for i, (key, spec) in enumerate(cells.items())
        }
        self._pending: List[str] = list(self._cells)
        self._leases: Dict[str, _Lease] = {}
        self._done: set = set()
        self._failed: Optional[CellFailed] = None
        # run statistics, read by the coordinator's metrics export
        self.reassigned = 0
        self.retried = 0

    # ------------------------------------------------------------------
    def lease(self, worker: str, now: float) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Hand the lowest-input-index pending cell to *worker*.

        Returns ``(key, spec)`` or ``None`` when nothing is pending
        (either all leased out or the run is complete).
        """
        with self._lock:
            if self._failed is not None or not self._pending:
                return None
            self._pending.sort(key=lambda k: self._cells[k].index)
            key = self._pending.pop(0)
            self._leases[key] = _Lease(
                worker=worker, deadline=now + self.lease_timeout
            )
            return key, dict(self._cells[key].spec)

    def heartbeat(self, key: str, worker: str, now: float) -> bool:
        """Renew *worker*'s lease on *key*; False if it no longer holds it."""
        with self._lock:
            lease = self._leases.get(key)
            if lease is None or lease.worker != worker:
                return False
            lease.deadline = now + self.lease_timeout
            return True

    def complete(self, key: str, worker: str) -> bool:
        """Mark *key* done.  Idempotent; returns True on the first call.

        Completions are accepted from any worker — a reassigned cell may
        be finished by its original (straggling) worker first, and the
        result is the same bytes either way.
        """
        with self._lock:
            if key not in self._cells:
                return False
            first = key not in self._done
            self._done.add(key)
            self._leases.pop(key, None)
            if key in self._pending:
                self._pending.remove(key)
            return first

    def fail_attempt(self, key: str, worker: str, error: str) -> None:
        """Record a failed execution of *key*; requeue or give up.

        The error consumes an attempt whoever reports it, but the cell is
        requeued only when it is neither pending nor leased: a straggler
        whose lease expired must not hand out a cell another worker holds.
        """
        with self._lock:
            state = self._cells.get(key)
            if state is None or key in self._done:
                return
            lease = self._leases.get(key)
            if lease is not None and lease.worker == worker:
                del self._leases[key]
            state.attempts += 1
            state.errors.append(error)
            if state.attempts > self.max_retries:
                self._failed = CellFailed(key, state.spec, state.errors)
            elif key not in self._pending and key not in self._leases:
                self.retried += 1
                self._pending.append(key)

    def release_worker(self, worker: str) -> List[str]:
        """Requeue every cell leased to a (dead) worker; returns the keys."""
        with self._lock:
            keys = [k for k, l in self._leases.items() if l.worker == worker]
            for key in keys:
                self._requeue_locked(key, f"worker {worker} died")
            return keys

    def expire(self, now: float) -> List[str]:
        """Requeue every cell whose lease deadline has passed."""
        with self._lock:
            keys = [
                k for k, l in self._leases.items() if l.deadline <= now
            ]
            for key in keys:
                self._requeue_locked(
                    key,
                    f"lease timeout ({self.lease_timeout}s) on "
                    f"{self._leases[key].worker}",
                )
            return keys

    def next_deadline(self) -> Optional[float]:
        """When the earliest outstanding lease runs out (``None``: no lease)
        — how long a coordinator may block before :meth:`expire` has work."""
        with self._lock:
            return min(
                (l.deadline for l in self._leases.values()), default=None
            )

    def _requeue_locked(self, key: str, reason: str) -> None:
        self._leases.pop(key, None)
        if key in self._done or key in self._pending:
            return
        state = self._cells[key]
        state.attempts += 1
        state.errors.append(reason)
        if state.attempts > self.max_retries:
            self._failed = CellFailed(key, state.spec, state.errors)
        else:
            self.reassigned += 1
            self._pending.append(key)

    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Cells not yet done (pending + leased) — the queue-depth gauge."""
        with self._lock:
            return len(self._cells) - len(self._done)

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def done_count(self) -> int:
        with self._lock:
            return len(self._done)

    def all_done(self) -> bool:
        with self._lock:
            return len(self._done) == len(self._cells)

    def failure(self) -> Optional[CellFailed]:
        with self._lock:
            return self._failed

    def worker_of(self, key: str) -> Optional[str]:
        with self._lock:
            lease = self._leases.get(key)
            return lease.worker if lease is not None else None
