"""End-to-end tests for the loopback TCP deployment of the Figure-4 store.

The full acceptance-scale deployment (2 sequencers / 3 servers / 8 clients,
500+ ops, crash + 5% loss) runs in CI's ``live-smoke`` job through the
``repro kv-live`` CLI; here small clusters check the cluster shape, the clock
seam and the causal audit on real sockets.  Crash-recovery, fault injection
and failover run on virtual time (``test_virtual.py``,
``test_inline_controls.py``).
"""

import json
import multiprocessing

import pytest

from repro.applications.causal_kv import StoreConfig
from repro.net import (
    LIVE_CLOCKS,
    ClusterSpec,
    FileAddressBook,
    TransportError,
    run_live_store_sync,
)
from repro.net.loadgen import LiveReport, build_live_clock
from repro.obs.metrics import MetricsRegistry


def small_config(**kw):
    defaults = dict(
        n_sequencers=2,
        n_servers=2,
        n_clients=2,
        n_keys=4,
        ops_per_client=4,
        write_fraction=0.6,
        seed=7,
    )
    defaults.update(kw)
    return StoreConfig(**defaults)


class TestClusterSpec:
    def test_roles_partition_the_processes(self):
        spec = ClusterSpec(small_config())
        roles = [spec.role_of(pid) for pid in range(spec.n_processes)]
        assert roles.count("sequencer") == 2
        assert roles.count("server") == 2
        assert roles.count("client") == 2

    def test_clients_attach_to_two_sequencers(self):
        spec = ClusterSpec(small_config())
        for pid in spec.clients:
            attached = spec.attached(pid)
            assert len(attached) == 2
            assert all(spec.role_of(s) == "sequencer" for s in attached)

    def test_next_hop_stays_on_graph_edges(self):
        spec = ClusterSpec(small_config(n_clients=3))
        for here in range(spec.n_processes):
            for target in range(spec.n_processes):
                if here == target:
                    continue
                nxt = spec.next_hop(here, target)
                assert spec.graph.has_edge(here, nxt)

    def test_primary_assignment_is_deterministic(self):
        spec = ClusterSpec(small_config())
        for key in ("k0", "k1", "k2", "k3"):
            primary = spec.primary_of(key)
            assert spec.role_of(primary) == "server"
            assert primary == spec.primary_of(key)


class TestFileAddressBook:
    def test_roundtrip_and_cross_instance_visibility(self, tmp_path):
        path = str(tmp_path / "book.json")
        writer = FileAddressBook(path)
        writer.set(0, ("127.0.0.1", 4100))
        writer.set(1, ("127.0.0.1", 4200))
        reader = FileAddressBook(path)
        assert reader.get(0) == ("127.0.0.1", 4100)
        writer.set(0, ("127.0.0.1", 4300))  # restart on a new port
        assert reader.get(0) == ("127.0.0.1", 4300)

    def test_unknown_pid_raises(self, tmp_path):
        book = FileAddressBook(str(tmp_path / "book.json"))
        with pytest.raises(TransportError, match="p9 not in address book"):
            book.get(9)

    def test_concurrent_registrations_are_all_kept(self, tmp_path):
        """Nodes started together register at once; each ``set`` is a
        read-modify-replace of the one file, and without a lock the last
        replace dropped what the others had written in between."""
        path = str(tmp_path / "book.json")
        ctx = multiprocessing.get_context("spawn")
        workers, each = 8, 10
        barrier = ctx.Barrier(workers)
        procs = [
            ctx.Process(target=_register_many, args=(path, barrier, w, each))
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(30)
        assert [proc.exitcode for proc in procs] == [0] * workers
        book = FileAddressBook(path)
        for pid in range(workers * each):
            assert book.get(pid) == ("127.0.0.1", 5000 + pid)


def _register_many(path, barrier, worker, each):
    """One OS process registering *each* ids, all starting at once."""
    book = FileAddressBook(path)
    barrier.wait()
    for pid in range(worker * each, (worker + 1) * each):
        book.set(pid, ("127.0.0.1", 5000 + pid))


class TestBuildLiveClock:
    def test_every_live_clock_constructs(self):
        spec = ClusterSpec(small_config())
        for name in LIVE_CLOCKS:
            clock = build_live_clock(name, spec)
            assert clock.n_processes == spec.n_processes

    def test_kv_live_offers_exactly_the_live_clocks(self, capsys):
        from repro.cli import make_parser

        parser = make_parser()
        for name in LIVE_CLOCKS + ("none",):
            assert parser.parse_args(["kv-live", "--clock", name]).clock == name
        for name in ("vector-sk", "inline-star"):  # FIFO-only, star-only
            with pytest.raises(SystemExit):
                parser.parse_args(["kv-live", "--clock", name])

    def test_fifo_requiring_clock_is_rejected(self):
        spec = ClusterSpec(small_config())
        with pytest.raises(ValueError, match="FIFO"):
            build_live_clock("vector-sk", spec)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown clock"):
            build_live_clock("sundial", ClusterSpec(small_config()))


class TestLatencyPercentiles:
    def test_percentiles_and_cdf_are_nearest_rank(self):
        # p50/p95/p99 used to read one rank high (51/96/100 here, so p99
        # was the maximum) while the CDF read 50 at 0.5
        latencies = [float(ms) for ms in range(1, 101)]
        report = LiveReport(small_config(), "inline", 1.0, 100, latencies, [], 0, 0)
        assert [report.percentile(q) for q in (0.5, 0.95, 0.99)] == [50.0, 95.0, 99.0]
        assert report.latency_cdf() == [(5.0 * i, i / 20) for i in range(1, 21)]


class TestCleanRun:
    def test_audit_clean_and_inline_bound_holds(self):
        config = small_config()
        report = run_live_store_sync(
            config, clock_name="inline", registry=MetricsRegistry()
        )
        assert report.ok
        assert report.violations == []  # empty-list equality, like the sim
        assert report.lost_acked_writes == 0
        assert report.ops_completed == 8
        assert report.checkpoint_problems == []
        # the paper's bound: inline timestamps <= 2|sequencers| + 2 elements
        assert report.clock_stats["max_elements"] <= 2 * 2 + 2
        assert report.latencies_ms == sorted(report.latencies_ms)
        assert len(report.latencies_ms) == 8
        assert report.throughput > 0

    def test_report_serializes_to_json(self):
        report = run_live_store_sync(
            small_config(ops_per_client=2), clock_name="inline"
        )
        d = json.loads(json.dumps(report.as_dict()))
        assert d["ok"] is True
        assert d["ops_completed"] == 4
        assert d["counters"]["net.frames_sent"] > 0
        assert len(d["latency_cdf"]) == 20
        assert "verdict: OK" in report.render()

    def test_the_callers_registry_gets_the_counters(self):
        registry = MetricsRegistry()  # empty, and so falsy
        report = run_live_store_sync(
            small_config(ops_per_client=2), clock_name="inline", registry=registry
        )
        frames = registry.counter_value("net.frames_sent")
        assert frames == report.counters["net.frames_sent"] > 0

    def test_clockless_run(self):
        report = run_live_store_sync(small_config(ops_per_client=2))
        assert report.ok
        assert report.clock is None
        assert report.clock_stats == {}

    def test_hlc_runs_on_wall_clock_seam(self):
        report = run_live_store_sync(
            small_config(ops_per_client=2), clock_name="hlc"
        )
        assert report.ok
        assert report.clock_stats["events"] > 0

    def test_compare_sim_attaches_prediction(self):
        report = run_live_store_sync(
            small_config(ops_per_client=2), clock_name="inline",
            compare_sim=True,
        )
        assert report.sim_prediction is not None
        assert report.sim_prediction["completed_operations"] == 4
        assert report.sim_prediction["violations"] == []
        assert report.sim_prediction["inline_max_elements"] <= 2 * 2 + 2
