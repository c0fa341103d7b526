"""Remote placement: FabricService + run_remote_worker over loopback.

A coordinator with ``workers=0`` and a ``listen`` address does no local
work — every cell is leased, executed, and completed by remote workers
over the repro.net transport.  The store must still come out
byte-identical to a serial run.
"""

from __future__ import annotations

import threading

import pytest

from repro.fabric import ResultStore, run_fabric
from repro.fabric.drivers import selftest_specs
from repro.fabric.netqueue import run_remote_worker


def _remote_run(tmp_path, specs, *, n_workers=1, max_cells=None,
                resume=False, store=None):
    """Run specs with remote workers only; return (report, store, counts)."""
    store = store or ResultStore(tmp_path / "remote")
    ready = threading.Event()
    addr_box = {}

    def on_listen(addr):
        addr_box["addr"] = addr
        ready.set()

    counts = [None] * n_workers
    threads = []

    def worker(slot):
        ready.wait(timeout=10.0)
        counts[slot] = run_remote_worker(
            addr_box["addr"][0],
            addr_box["addr"][1],
            name=f"remote-{slot}",
            heartbeat_interval=0.2,
            poll=0.05,
            max_cells=max_cells,
        )

    for slot in range(n_workers):
        t = threading.Thread(target=worker, args=(slot,), daemon=True)
        t.start()
        threads.append(t)

    report = run_fabric(
        specs,
        store,
        workers=0,
        resume=resume,
        listen=("127.0.0.1", 0),
        listen_ready=on_listen,
        lease_timeout=10.0,
    )
    for t in threads:
        # a worker caught polling when the coordinator exits gives up
        # after one request timeout (2 s), not after its retry budget
        t.join(timeout=10.0)
    return report, store, counts


def test_remote_only_run_matches_serial_digest(tmp_path):
    specs = selftest_specs(6)
    serial = ResultStore(tmp_path / "serial")
    run_fabric(specs, serial)

    report, store, counts = _remote_run(tmp_path, specs)
    assert store.digest() == serial.digest()
    assert report.stats["cells_done"] == 6
    assert counts == [6]


def test_two_remote_workers_share_the_queue(tmp_path):
    specs = selftest_specs(8, sleep=0.01)
    serial = ResultStore(tmp_path / "serial")
    run_fabric(specs, serial)

    report, store, counts = _remote_run(tmp_path, specs, n_workers=2)
    assert store.digest() == serial.digest()
    assert sum(counts) == 8
    assert report.stats["cells_done"] == 8


def test_max_cells_bounds_a_worker(tmp_path):
    specs = selftest_specs(5)
    serial = ResultStore(tmp_path / "serial")
    run_fabric(specs, serial)

    # the bounded worker quits after 2 cells; the second finishes the rest
    ready = threading.Event()
    addr_box = {}
    store = ResultStore(tmp_path / "remote")
    counts = {}

    def on_listen(addr):
        addr_box["addr"] = addr
        ready.set()

    def bounded():
        ready.wait(timeout=10.0)
        counts["bounded"] = run_remote_worker(
            addr_box["addr"][0], addr_box["addr"][1],
            name="bounded", heartbeat_interval=0.2, poll=0.05,
            max_cells=2,
        )

    def sweeper():
        ready.wait(timeout=10.0)
        counts["sweeper"] = run_remote_worker(
            addr_box["addr"][0], addr_box["addr"][1],
            name="sweeper", heartbeat_interval=0.2, poll=0.05,
        )

    threads = [
        threading.Thread(target=bounded, daemon=True),
        threading.Thread(target=sweeper, daemon=True),
    ]
    for t in threads:
        t.start()
    run_fabric(
        specs, store, workers=0,
        listen=("127.0.0.1", 0), listen_ready=on_listen,
        lease_timeout=10.0,
    )
    for t in threads:
        t.join(timeout=10.0)  # see _remote_run
    assert counts["bounded"] <= 2
    assert counts["bounded"] + counts["sweeper"] == 5
    assert store.digest() == serial.digest()


def test_remote_resume_skips_completed_cells(tmp_path):
    specs = selftest_specs(6)
    serial = ResultStore(tmp_path / "serial")
    run_fabric(specs, serial)

    # pre-complete half the sweep serially, then resume remotely
    store = ResultStore(tmp_path / "remote")
    with pytest.raises(Exception):
        run_fabric(specs, store, interrupt_after=3)
    assert len(store) == 3

    report, store, counts = _remote_run(
        tmp_path, specs, resume=True, store=store
    )
    assert report.stats["cells_resumed"] == 3
    assert counts == [3]
    assert store.digest() == serial.digest()


def test_hybrid_local_and_remote_workers(tmp_path):
    specs = selftest_specs(8, sleep=0.01)
    serial = ResultStore(tmp_path / "serial")
    run_fabric(specs, serial)

    ready = threading.Event()
    addr_box = {}
    store = ResultStore(tmp_path / "hybrid")

    def on_listen(addr):
        addr_box["addr"] = addr
        ready.set()

    def worker():
        ready.wait(timeout=10.0)
        run_remote_worker(
            addr_box["addr"][0], addr_box["addr"][1],
            name="remote-0", heartbeat_interval=0.2, poll=0.05,
        )

    t = threading.Thread(target=worker, daemon=True)
    t.start()
    report = run_fabric(
        specs, store, workers=1,
        listen=("127.0.0.1", 0), listen_ready=on_listen,
        lease_timeout=10.0,
    )
    t.join(timeout=10.0)
    assert report.stats["cells_done"] == 8
    assert store.digest() == serial.digest()
