"""Fault-tolerant work-queue coordinator for sweep cells.

:func:`run_fabric` is the repo's one process-parallel sweep runner, a
crash-tolerant fabric: cells are content-hash keyed
(:mod:`repro.fabric.hashing`), completed results land atomically in a
:class:`~repro.fabric.store.ResultStore`, and placement is free —
serial or N local worker processes on this host produce byte-identical
stores.

Fault model, in increasing severity:

- **Straggler / hung worker** — its lease expires (no heartbeat within
  ``lease_timeout``) and the cell is handed to another worker.  If the
  straggler eventually finishes anyway, the idempotent store absorbs the
  duplicate completion.
- **SIGKILLed / crashed worker** — its ``Process.sentinel`` wakes the
  coordinator; its leased cells are requeued immediately and a
  replacement worker is spawned (at most ``workers + 4`` in one run).
- **Failing cell** — a work-function exception is retried up to
  ``max_retries`` times, then surfaces as
  :class:`~repro.fabric.queue.CellFailed` carrying every attempt's
  traceback.
- **Interrupted coordinator** — SIGINT/SIGTERM (or the ``KeyboardInterrupt``
  a CLI's signal shim raises) terminates the workers and raises
  :class:`FabricInterrupted`; everything completed so far is already
  durable in the store, so rerunning with ``resume=True`` recomputes
  nothing.

Workers ignore SIGINT so a ^C on the process group unwinds through the
coordinator alone.  Progress is exported through the active
:mod:`repro.obs.metrics` registry: ``fabric.cells_done`` /
``fabric.cells_resumed`` / ``fabric.cells_retried`` /
``fabric.cells_reassigned`` / ``fabric.workers_spawned`` counters and
the ``fabric.queue_depth`` gauge.

A worker starts warm: before its first fork the coordinator imports the
modules the sweep's work kinds declare (:func:`repro.fabric.drivers.work_kind`),
so every forked worker inherits them compiled and its first cell loads
only numpy and :mod:`repro.core.npkernel`.  numpy itself is never loaded
here: it would grow the coordinator's resident set by ≈ 11 MB.

Deterministic chaos hooks (used by the fabric-smoke CI job and the
crash-resume test suite; never set them in real runs).  :func:`run_fabric`
reads them once, before any cell runs, and refuses a malformed value with
a ``ValueError``; workers are handed their part as arguments:

- ``REPRO_FABRIC_TEST_KILL="W[:N]"`` — worker ``W`` (≥ 0) SIGKILLs itself
  after completing ``N`` (≥ 1, default 1) cells.
- ``REPRO_FABRIC_TEST_HANG="W"`` — worker ``W`` (≥ 0) hangs instead of
  executing its first leased cell (exercises lease-timeout reassignment).
- ``REPRO_FABRIC_TEST_INTERRUPT="N"`` — the coordinator behaves as if
  ^C arrived after ``N`` (≥ 1) completions of the current run.
"""

from __future__ import annotations

import importlib
import math
import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.fabric.drivers import KIND_IMPORTS, execute_cell
from repro.fabric.hashing import cell_key
from repro.fabric.queue import CellFailed, WorkQueue
from repro.fabric.store import ResultStore
from repro.obs import counter, gauge

__all__ = [
    "CellFailed",
    "FabricInterrupted",
    "FabricReport",
    "run_fabric",
]

#: deterministic fault-injection knobs (see module docstring)
KILL_ENV = "REPRO_FABRIC_TEST_KILL"
HANG_ENV = "REPRO_FABRIC_TEST_HANG"
INTERRUPT_ENV = "REPRO_FABRIC_TEST_INTERRUPT"

Executor = Callable[[Mapping[str, Any]], Any]


class FabricInterrupted(RuntimeError):
    """The run was cut short by SIGINT/SIGTERM.

    Completed cells are durable in the store; ``done`` counts this run's
    completions and ``remaining`` the cells still owed.  Rerunning the
    same sweep with ``resume=True`` picks up exactly where this stopped.
    """

    def __init__(self, done: int, remaining: int) -> None:
        self.done = done
        self.remaining = remaining
        super().__init__(
            f"fabric run interrupted: {done} cell(s) completed this run, "
            f"{remaining} remaining (store is resumable)"
        )


@dataclass
class FabricReport:
    """Outcome of one completed fabric run.

    ``keys`` are in *input order* regardless of execution placement;
    results are read back from the store so memory stays bounded —
    :meth:`iter_results` streams one cell at a time (the path the report
    merges use), :meth:`load_results` materializes the list for small
    sweeps.
    """

    store: ResultStore
    keys: List[str]
    stats: Dict[str, int] = field(default_factory=dict)

    def iter_results(self) -> Iterator[Any]:
        return self.store.iter_results(iter(self.keys))

    def load_results(self) -> List[Any]:
        return list(self.iter_results())


# ----------------------------------------------------------------------
# test hooks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TestHooks:
    kill: Optional[Tuple[int, int]]  # (worker id, cells it completes first)
    hang: Optional[int]  # worker id
    interrupt_after: Optional[int]


def _hook_int(var: str, raw: str, part: str, form: str, least: int) -> int:
    try:
        value = int(part)
    except ValueError:
        value = least - 1
    if value < least:
        raise ValueError(f"{var}={raw!r}: expected {form}")
    return value


def _read_hooks(interrupt_after: Optional[int]) -> _TestHooks:
    """Parse the test-hook variables (see module docstring), once."""
    kill = None
    raw = os.environ.get(KILL_ENV)
    if raw:
        form = "W or W:N, worker id W >= 0 dying after N >= 1 cells"
        wid, sep, after = raw.partition(":")
        kill = (
            _hook_int(KILL_ENV, raw, wid, form, 0),
            _hook_int(KILL_ENV, raw, after if sep else "1", form, 1),
        )
    hang = None
    raw = os.environ.get(HANG_ENV)
    if raw:
        hang = _hook_int(HANG_ENV, raw, raw, "W, a worker id >= 0", 0)
    if interrupt_after is None:
        raw = os.environ.get(INTERRUPT_ENV)
        if raw:
            interrupt_after = _hook_int(
                INTERRUPT_ENV, raw, raw, "N, a completion count >= 1", 1
            )
    elif interrupt_after < 1:
        raise ValueError(f"interrupt_after must be >= 1, got {interrupt_after}")
    return _TestHooks(kill, hang, interrupt_after)


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _heartbeat_loop(conn, lock: threading.Lock, leased: List[Optional[str]],
                    interval: float) -> None:
    """Renew the lease on whatever cell the worker holds, for its whole life.

    *lock* serialises this thread's sends with the lease loop's on the one
    pipe, and makes "holds a cell" and "reported it" change together, so no
    beat follows a completion.
    """
    tick = threading.Event()  # never set: wait() is the interval timer
    while not tick.wait(interval):
        with lock:
            if leased[0] is not None:
                try:
                    conn.send(("hb", leased[0]))
                except (ValueError, OSError):  # pipe torn down mid-beat
                    return


#: the thread-pool sizes a numeric library reads once, on import
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_main(
    conn,
    store_root: str,
    executor: Executor,
    heartbeat_interval: float,
    kill_after: Optional[int],
    hang: bool,
) -> None:
    """One worker: lease loop of execute → store → report.

    The result is written to the store *before* the completion event is
    posted, so a crash between the two at worst reports the cell late —
    never loses it.  SIGINT is ignored: interactive ^C hits the whole
    process group, and shutdown is the coordinator's call.

    A worker is one core, so it starts no BLAS thread pool: numpy (the
    backend-differential invariant imports it) would otherwise start one
    thread per core on import, for nothing.  As loky/joblib workers do, the
    pool sizes are set to 1 before the first cell runs, unless the
    environment already chose them; the coordinator's own stay as they are.

    *kill_after* and *hang* are this worker's part of the test hooks: it
    SIGKILLs itself after that many completed cells, or hangs on its first.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    store = ResultStore(store_root)
    lock = threading.Lock()
    leased: List[Optional[str]] = [None]
    threading.Thread(
        target=_heartbeat_loop,
        args=(conn, lock, leased, heartbeat_interval),
        daemon=True,
    ).start()
    completed = 0
    while True:
        try:
            task = conn.recv()
        except EOFError:  # coordinator gone without a goodbye
            return
        if task is None:
            return
        key, spec = task
        if hang:
            # deliberately stuck before any heartbeat: the lease expires
            # and the coordinator reassigns the cell to a live worker
            time.sleep(3600.0)
        with lock:
            leased[0] = key
        try:
            result = executor(spec)
            store.put(key, spec, result)
            event: Tuple[Any, ...] = ("done", key)
        except BaseException:
            event = ("err", key, traceback.format_exc())
        with lock:
            leased[0] = None
            conn.send(event)
        if event[0] == "err":
            continue
        completed += 1
        if kill_after is not None and completed >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
@dataclass
class _LocalWorker:
    name: str  # the lease holder's name in the WorkQueue
    proc: multiprocessing.Process
    conn: Any  # this end of the worker's duplex pipe: cells out, events in
    busy_key: Optional[str] = None


def run_fabric(
    specs: Sequence[Mapping[str, Any]],
    store: ResultStore,
    *,
    executor: Optional[Executor] = None,
    workers: int = 1,
    resume: bool = False,
    lease_timeout: float = 30.0,
    max_retries: int = 2,
    interrupt_after: Optional[int] = None,
) -> FabricReport:
    """Run every cell of a sweep through the fabric; return in input order.

    *specs* are JSON-safe cell descriptors (see
    :func:`repro.fabric.hashing.cell_key`); *executor* maps one spec to a
    JSON-safe result (default: the ``kind``-dispatched registry of
    :mod:`repro.fabric.drivers`).  ``workers = 1`` runs serially
    in-process — no pickling requirements, and the reference mode the
    byte-identity guarantee is stated against; ``workers > 1`` spawns that
    many local worker processes, which start warm: the coordinator first
    imports the modules the sweep's work kinds declare (see
    :func:`repro.fabric.drivers.work_kind`), never numpy.

    ``resume=True`` skips cells already completed in *store*;
    ``resume=False`` insists on a store containing no cell of this sweep
    (mixing two different sweeps in one store directory is always fine —
    keys never collide).

    *interrupt_after* (or ``REPRO_FABRIC_TEST_INTERRUPT``) stops the run as
    ^C would after that many completions, at least 1.  It and the other
    test hooks are checked before any cell or worker starts: a malformed
    value raises ``ValueError`` on every placement.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # checked here, not only by WorkQueue, so the serial path refuses it too
    if not 0 < lease_timeout < math.inf:
        raise ValueError("lease_timeout must be positive and finite")
    hooks = _read_hooks(interrupt_after)
    keyed: List[Tuple[str, Dict[str, Any]]] = []
    seen: Dict[str, int] = {}
    for i, spec in enumerate(specs):
        key = cell_key(spec)
        if key in seen:
            raise ValueError(
                f"duplicate cell spec at index {i} (same content hash as "
                f"index {seen[key]}): {dict(spec)!r}"
            )
        seen[key] = i
        keyed.append((key, dict(spec)))

    done_keys = {k for k, _ in keyed if store.has(k)}
    if done_keys and not resume:
        raise ValueError(
            f"store {store.root} already holds {len(done_keys)} cell(s) of "
            "this sweep; pass --resume to reuse them or point --fabric at a "
            "fresh directory"
        )
    counter("fabric.cells_resumed").inc(len(done_keys))
    pending = [(k, s) for k, s in keyed if k not in done_keys]
    gauge("fabric.queue_depth").set(len(pending))

    stats = {
        "cells_total": len(keyed),
        "cells_resumed": len(done_keys),
        "cells_done": 0,
        "cells_retried": 0,
        "cells_reassigned": 0,
        "workers_spawned": 0,
    }
    if pending:
        if workers == 1:
            _run_serial(
                pending, store, executor or execute_cell, stats,
                max_retries, hooks.interrupt_after,
            )
        else:
            _run_coordinated(
                pending, store, executor or execute_cell, stats,
                workers=workers,
                lease_timeout=lease_timeout,
                max_retries=max_retries,
                hooks=hooks,
            )
    return FabricReport(
        store=store, keys=[k for k, _ in keyed], stats=stats
    )


def _run_serial(
    pending: List[Tuple[str, Dict[str, Any]]],
    store: ResultStore,
    executor: Executor,
    stats: Dict[str, int],
    max_retries: int,
    interrupt_after: Optional[int],
) -> None:
    depth = gauge("fabric.queue_depth")
    done_ctr = counter("fabric.cells_done")
    try:
        for key, spec in pending:
            errors: List[str] = []
            while True:
                try:
                    result = executor(spec)
                    break
                except KeyboardInterrupt:
                    raise
                except Exception:
                    errors.append(traceback.format_exc())
                    if len(errors) > max_retries:
                        raise CellFailed(key, spec, errors) from None
                    stats["cells_retried"] += 1
                    counter("fabric.cells_retried").inc()
            store.put(key, spec, result)
            stats["cells_done"] += 1
            done_ctr.inc()
            depth.set(len(pending) - stats["cells_done"])
            if (
                interrupt_after is not None
                and stats["cells_done"] >= interrupt_after
                and stats["cells_done"] < len(pending)
            ):
                raise KeyboardInterrupt
    except KeyboardInterrupt:
        raise FabricInterrupted(
            stats["cells_done"], len(pending) - stats["cells_done"]
        ) from None


def _run_coordinated(
    pending: List[Tuple[str, Dict[str, Any]]],
    store: ResultStore,
    executor: Executor,
    stats: Dict[str, int],
    *,
    workers: int,
    lease_timeout: float,
    max_retries: int,
    hooks: _TestHooks,
) -> None:
    interrupt_after = hooks.interrupt_after
    heartbeat_interval = min(5.0, max(0.05, lease_timeout / 4.0))
    queue = WorkQueue(
        dict(pending), lease_timeout=lease_timeout, max_retries=max_retries
    )
    ctx = multiprocessing.get_context()
    fleet: List[_LocalWorker] = []
    next_wid = 0
    respawns_left = max_respawns = workers + 4
    depth = gauge("fabric.queue_depth")

    def spawn() -> None:
        nonlocal next_wid
        conn, worker_end = ctx.Pipe()
        kill_after = (
            hooks.kill[1]
            if hooks.kill is not None and hooks.kill[0] == next_wid
            else None
        )
        proc = ctx.Process(
            target=_worker_main,
            args=(worker_end, str(store.root), executor, heartbeat_interval,
                  kill_after, hooks.hang == next_wid),
            daemon=True,
        )
        proc.start()
        worker_end.close()
        fleet.append(_LocalWorker(f"local-{next_wid}", proc, conn))
        counter("fabric.workers_spawned").inc()
        stats["workers_spawned"] += 1
        next_wid += 1

    def absorb(w: _LocalWorker) -> bool:
        """Take one event off *w*'s pipe; False once the pipe is torn (a
        dead worker's reads as ready for ever — the reaper closes it)."""
        try:
            event = w.conn.recv()
        except (EOFError, OSError):
            return False
        tag, key = event[0], event[1]
        if tag == "hb":
            queue.heartbeat(key, w.name, time.monotonic())
            return True
        if tag == "done":
            queue.complete(key, w.name)
        else:
            queue.fail_attempt(key, w.name, event[2])
        w.busy_key = None
        account()
        return True

    def account() -> None:
        # counted off the queue rather than off worker events: the queue
        # is where reassignments (expiry, a dead worker's requeued lease)
        # and retries are counted, which no single worker event reports
        for name, total in (
            ("cells_done", queue.done_count()),
            ("cells_retried", queue.retried),
            ("cells_reassigned", queue.reassigned),
        ):
            if total > stats[name]:
                counter(f"fabric.{name}").inc(total - stats[name])
                stats[name] = total
        depth.set(queue.depth())
        # tested after every single local completion, so one turn cannot
        # take the count past the threshold and on to the end of the run
        if (
            interrupt_after is not None
            and stats["cells_done"] >= interrupt_after
            and not queue.all_done()
        ):
            raise KeyboardInterrupt

    # forked workers inherit these: the cells' code is compiled once here,
    # not once per worker on its first cell
    for kind in {spec.get("kind") for _, spec in pending}:
        for module in KIND_IMPORTS.get(kind, ()):
            importlib.import_module(module)
    try:
        for _ in range(workers):
            spawn()
        while not queue.all_done():
            failure = queue.failure()
            if failure is not None:
                raise failure
            # 1) expire overdue leases (stragglers, silent workers)
            queue.expire(time.monotonic())
            # 2) reap dead workers: read what they reported before dying,
            #    requeue their leases, respawn
            for w in list(fleet):
                if w.proc.is_alive():
                    continue
                while w.conn.poll() and absorb(w):
                    pass
                queue.release_worker(w.name)
                fleet.remove(w)
                w.conn.close()
                if respawns_left > 0 and not queue.all_done():
                    respawns_left -= 1
                    spawn()
            # 3) hand pending cells to idle workers (lowest input index
            #    first, so local placement follows sweep order)
            for w in fleet:
                if w.busy_key is not None:
                    continue
                leased = queue.lease(w.name, time.monotonic())
                if leased is None:
                    break
                w.busy_key = leased[0]
                try:
                    w.conn.send(leased)
                except OSError:
                    # died since step 2: its sentinel ends the wait below
                    # and the next turn's reap requeues this lease
                    pass
            account()
            if queue.all_done():
                break
            if not fleet:
                raise RuntimeError(
                    "fabric coordinator has no workers left (respawn budget "
                    f"of {max_respawns} exhausted)"
                )
            # 4) block until a worker reports or dies, or a lease runs out
            timeout = queue.next_deadline()
            if timeout is not None:  # already past: wait() only polls
                timeout -= time.monotonic()
            ready = wait(
                [w.conn for w in fleet] + [w.proc.sentinel for w in fleet],
                timeout,
            )
            for w in fleet:
                if w.conn in ready:
                    absorb(w)
        account()
    except KeyboardInterrupt:
        raise FabricInterrupted(stats["cells_done"], queue.depth()) from None
    finally:
        _shutdown_fleet(fleet)


def _shutdown_fleet(fleet: List[_LocalWorker]) -> None:
    for w in fleet:
        try:
            w.conn.send(None)
        except (ValueError, OSError):
            pass
    deadline = time.monotonic() + 2.0
    for w in fleet:
        w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for w in fleet:
        if w.proc.is_alive():
            w.proc.terminate()
    for w in fleet:
        w.proc.join(timeout=2.0)
        if w.proc.is_alive():  # pragma: no cover - stuck in kernel
            w.proc.kill()
            w.proc.join(timeout=1.0)
        w.conn.close()
