"""``kv-live-inline`` and ``kv-live-vector``: the Figure-4 store on loopback TCP.

Three sequencers, four servers and sixteen closed-loop clients in one
process, no faults, no injected delay — so latency is processor time only,
and with sixteen clients in flight p50 is about ``16 / throughput`` (Little's
law).  The two workloads differ only in the clock: ``inline-cover`` sends
``2|VC|+2``-wide payloads plus control frames, ``vector`` sends n-wide
payloads and no control traffic.  A transport change moves both, an
inline-control-path change only the first, and the difference in
``meta_bytes_per_op`` between them is the paper's size claim in bytes.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Dict, List

import inputs
import stats
from spans import NullTracer
from workloads.base import PROBE_ROUNDS, Checks, Rep, best_of, clocked

from repro.net import loadgen
from repro.net.node import LiveClockHost
from repro.net.transport import (
    PeerClient,
    RpcServer,
    TransportPolicy,
    pack_payload,
    unpack_payload,
)

CLOCK_OF = {"kv-live-inline": "inline-cover", "kv-live-vector": "vector"}
HOST_HOOKS = ("envelope", "deliver", "control")
#: clock payloads kept from a traced rep for the pack/unpack probe
PAYLOAD_SAMPLES = 1_000


def wire_bytes(obj: Any) -> int:
    return len(json.dumps(obj, separators=(",", ":")))


def counting_host(tracer, payloads: List[Any]):
    """A ``LiveClockHost`` that times its hooks and counts metadata bytes;
    the first packed clock payloads it sees are kept in *payloads*."""

    class CountingClockHost(LiveClockHost):
        def envelope(self, src, dst):
            started = time.perf_counter()
            env = super().envelope(src, dst)
            tracer.add("net.clock_host.envelope", time.perf_counter() - started)
            tracer.count("net.envelope_bytes", wire_bytes(env["ts"]))
            if len(payloads) < PAYLOAD_SAMPLES:
                payloads.append(env["ts"])
            return env

        def deliver(self, dst, src, env):
            started = time.perf_counter()
            controls = super().deliver(dst, src, env)
            tracer.add("net.clock_host.deliver", time.perf_counter() - started)
            for ctl in controls:
                tracer.count("net.control_frames")
                tracer.count("net.control_bytes", wire_bytes(ctl["pl"]))
            return controls

        def control(self, src, dst, seq, packed):
            started = time.perf_counter()
            super().control(src, dst, seq, packed)
            tracer.add("net.clock_host.control", time.perf_counter() - started)

    return CountingClockHost


class LiveWorkload:
    unit = "ops"

    def __init__(self, name: str, seed: int, sizes: Dict[str, Any]) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.clock = CLOCK_OF[name]
        self.payloads: List[Any] = []

    def _run(self, tracer, clock: str, seed: int, sizes=None, policy=None):
        config = inputs.store_config(seed, sizes or self.sizes)
        original = loadgen.LiveClockHost
        if tracer.enabled:
            loadgen.LiveClockHost = counting_host(tracer, self.payloads)
        try:
            with tracer.span("net.run_live_store"):
                return loadgen.run_live_store_sync(config, clock, policy=policy)
        finally:
            loadgen.LiveClockHost = original

    def rep(self, tracer, seed: int) -> Rep:
        cpu_started = time.process_time()
        wall, report = clocked(lambda: self._run(tracer, self.clock, seed))
        cpu_s = time.process_time() - cpu_started
        config = report.config
        expected = config.n_clients * config.ops_per_client
        stats_ = report.clock_stats

        checks = Checks()
        checks.count(
            expected,
            (expected - report.ops_completed)
            + len(report.violations)
            + report.lost_acked_writes
            + len(report.checkpoint_problems),
            "operations completed, causally consistent and durable",
        )
        checks.expect(report.ok, "LiveReport.ok")
        n = config.total_processes()
        want = 2 * config.n_sequencers + 2 if self.clock == "inline-cover" else n
        checks.expect(
            stats_["max_elements"] == want, f"{self.clock} width is {want}"
        )
        checks.count(
            stats_["events"], stats_["events"] - stats_["finalized_after_flush"],
            "events final after the termination flush",
        )
        counters = report.counters
        resent = counters["net.retransmits"] or counters["net.request_timeouts"]
        return Rep(
            # boot, drain, audit and shutdown: everything around the sessions
            setup_s=wall - report.duration_s,
            timed_s=report.duration_s,
            units=report.ops_completed,
            checks=checks,
            exact={
                "events": stats_["events"],
                "ops": report.ops_completed,
                # a retransmission adds frames: the count is exact without one
                "frames_sent": None if resent else counters["net.frames_sent"],
            },
            extra={"report": report, "cpu_s": cpu_s},
        )

    # ------------------------------------------------------------------
    def layers(self, plain: List[Rep], traced: List[Rep], tracer) -> Dict[str, float]:
        reports = [r.extra["report"] for r in plain]
        last = reports[-1]
        ops = last.ops_completed
        latencies = sorted(ms for rep in reports for ms in rep.latencies_ms)
        supported = stats.supported_percentile(len(latencies))
        traced_ops = sum(r.units for r in traced)
        traced_s = sum(r.timed_s for r in traced)
        busy = sum(
            tracer.tallies.get(f"net.clock_host.{hook}", (0, 0.0))[1]
            for hook in HOST_HOOKS
        )
        counts = tracer.counts
        envelope = counts.get("net.envelope_bytes", 0) / traced_ops
        control = counts.get("net.control_bytes", 0) / traced_ops
        out = {
            "live_ops_per_s": stats.median([r.rate for r in plain]),
            # p99 or nothing: under 1,000 pooled samples (the smoke preset)
            # fewer than ten lie beyond it, and no other percentile may take
            # its name; the full preset's ``min_reps`` pools 1,280 at least
            "live_p99_ms":
                stats.percentile(latencies, 0.99) if supported >= 0.99 else 0.0,
            "net.tail_percentile": supported,
            "net.latency_samples": len(latencies),
            "net.p50_ms": stats.percentile(latencies, 0.50),
            "meta_bytes_per_op": envelope + control,
            "frames_per_op": last.counters["net.frames_sent"] / ops,
            "finalized_online_ratio": last.clock_stats["finalized_fraction"],
            "net.clock_host_share": busy / traced_s,
            "net.envelope_bytes_per_op": envelope,
            "net.control_bytes_per_op": control,
            "net.control_frames_per_op":
                counts.get("net.control_frames", 0) / traced_ops,
            "net.cpu_us_per_op": stats.median(
                [r.extra["cpu_s"] / r.units * 1e6 for r in plain]
            ),
            "net.retransmits": sum(r.counters["net.retransmits"] for r in reports),
            "net.request_timeouts":
                sum(r.counters["net.request_timeouts"] for r in reports),
        }
        out.update(self._transport_layers())
        out["net.py_calls_per_op"] = self._py_calls_per_op()
        out["net.hlc_ops_per_s"] = stats.median(
            [self._hlc_ops_per_s() for _ in range(PROBE_ROUNDS)]
        )
        return out

    def _hlc_ops_per_s(self) -> float:
        report = self._run(NullTracer(), "hlc", self.seed)
        if not report.ok:
            raise AssertionError("hlc live run failed its audit")
        return report.throughput

    def _py_calls_per_op(self) -> float:
        """Python function calls per operation: a count, so it does not drift
        with the host the way wall-clock does.  Profiling slows the loop, so
        the run is shorter and its timeouts are too long to fire."""
        sizes = dict(self.sizes)
        sizes["ops_per_client"] = max(2, sizes["ops_per_client"] // 3)
        calls = [0]

        def profile(_frame, event, _arg):
            if event == "call":
                calls[0] += 1

        policy = TransportPolicy(request_timeout=10.0, max_retries=2, seed=self.seed)
        sys.setprofile(profile)
        try:
            report = self._run(
                NullTracer(), self.clock, self.seed, sizes=sizes, policy=policy
            )
        finally:
            sys.setprofile(None)
        if not report.ok:
            raise AssertionError("profiled live run failed its audit")
        return calls[0] / report.ops_completed

    def _transport_layers(self) -> Dict[str, float]:
        trips = self.sizes["rpc_round_trips"]

        async def echo(_peer, message):
            return message

        async def round_trips() -> float:
            """Median, over ``PROBE_ROUNDS`` batches, of seconds per batch."""
            server = RpcServer(1, echo)
            address = await server.start()
            client = PeerClient(0, 1, resolve=lambda: address)
            try:
                await client.request({"type": "ping", "i": -1})  # connect
                batches = []
                for _ in range(PROBE_ROUNDS):
                    started = time.perf_counter()
                    for i in range(trips):
                        await client.request({"type": "ping", "i": i})
                    batches.append(time.perf_counter() - started)
                return stats.median(batches)
            finally:
                await client.close()
                await server.stop()

        payloads = [unpack_payload(p) for p in self.payloads]
        return {
            "net.rpc_roundtrip_us": asyncio.run(round_trips()) / trips * 1e6,
            "net.pack_payload_us": best_of(
                lambda: [unpack_payload(pack_payload(p)) for p in payloads]
            ) / len(payloads) * 1e6,
        }

