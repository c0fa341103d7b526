"""Closed-loop load generation and reporting for the Figure-4 KV store.

:func:`run_live_store` boots a cluster for a
:class:`~repro.applications.causal_kv.StoreConfig` on the running event
loop, drives every client session to completion under an optional fault
model and scripted sequencer crash, quiesces, and audits the run post hoc
with :func:`~repro.applications.causal_kv.audit_operations`.  On asyncio's
own loop that is a loopback TCP cluster (``repro kv-live``); on a
:class:`~repro.net.virtual.VirtualLoop` it is
:func:`~repro.applications.causal_kv.run_store`.

The emitted :class:`LiveReport` carries:

- wall-clock latency samples (per-operation, closed loop) with a CDF and
  the usual percentiles, plus throughput;
- the causal audit (structured :class:`CausalViolation` records) and the
  count of *lost acknowledged writes* — writes a client saw acknowledged
  whose version is absent from the primaries' durable commit logs (zero in
  a correct deployment, crashes and all);
- clock-seam statistics (events observed, finalized fraction before the
  termination flush, max timestamp elements) and the crash-checkpoint
  permanence audit from the supervisor;
- the full ``net.*`` metrics registry snapshot;
- optionally, the virtual-time run of the identical config, so live and
  virtual behaviour sit side by side in one artifact.

Clock schemes are built by :func:`build_live_clock`; schemes that require
reliable FIFO application channels (``vector-sk``) are rejected up front —
the live transport retransmits and reorders, which their differential
encoding cannot tolerate.  ``hlc`` gets a real wall-clock time source here,
exercising the baseline honestly for the first time.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.applications.causal_kv import (
    CausalViolation,
    Operation,
    StoreConfig,
    WriteRecord,
    audit_operations,
    run_store,
)
from repro.clocks.base import ClockAlgorithm
from repro.conformance.registry import LIVE_CLOCKS
from repro.core.events import EventId
from repro.faults.models import FaultModel
from repro.net.chaos_proxy import ChaosInterposer
from repro.net.node import (
    ClientNode,
    ClusterSpec,
    AddressBook,
    LiveClockHost,
    ServerNode,
    TransportPolicy,
    collect_writes,
    link_operations,
    make_node,
)
from repro.net.supervisor import CrashPlan, Supervisor
from repro.obs import MetricsRegistry, counter, use_registry

#: :meth:`LiveReport.latency_cdf` samples the latencies at this many points
CDF_POINTS = 20


def build_live_clock(name: str, spec: ClusterSpec) -> ClockAlgorithm:
    """Construct a registered scheme sized for the live cluster graph."""
    n = spec.n_processes
    if name in ("inline", "inline-cover"):
        from repro.clocks.inline_cover import CoverInlineClock

        return CoverInlineClock(spec.graph, tuple(spec.sequencers))
    if name == "vector":
        from repro.clocks.vector import VectorClock

        return VectorClock(n)
    if name == "lamport":
        from repro.clocks.lamport import LamportClock

        return LamportClock(n)
    if name == "hlc":
        from repro.baselines.hlc import HybridLogicalClock

        return HybridLogicalClock(n, time_source=lambda _p: time.time())
    if name == "cluster":
        from repro.baselines import ClusterClock

        return ClusterClock(n)
    if name == "encoded":
        from repro.baselines import EncodedClock

        return EncodedClock(n)
    if name == "plausible":
        from repro.baselines import PlausibleClock

        return PlausibleClock(n, max(1, n // 3))
    if name == "vector-sk":
        raise ValueError(
            "vector-sk requires reliable FIFO application channels; the live "
            "transport retransmits and reorders, so it cannot host it"
        )
    raise ValueError(f"unknown clock {name!r} (live choices: {LIVE_CLOCKS})")


def _percentile(sorted_values: List[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(p * len(sorted_values)))
    return sorted_values[idx]


@dataclass
class LiveReport:
    """Everything one live deployment produced."""

    config: StoreConfig
    clock: Optional[str]
    duration_s: float
    ops_completed: int
    latencies_ms: List[float]  # sorted ascending
    violations: List[CausalViolation]
    lost_acked_writes: int
    failovers: int
    checkpoint_problems: List[str] = field(default_factory=list)
    clock_stats: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    sim_prediction: Optional[Dict[str, Any]] = None
    fault_description: str = "no faults"

    @property
    def throughput(self) -> float:
        return self.ops_completed / self.duration_s if self.duration_s else 0.0

    @property
    def ok(self) -> bool:
        """The acceptance predicate: audit clean, nothing acked was lost,
        every session ran to completion, checkpoints permanent."""
        expected = self.config.n_clients * self.config.ops_per_client
        return (
            not self.violations
            and self.lost_acked_writes == 0
            and self.ops_completed == expected
            and not self.checkpoint_problems
        )

    def percentile(self, p: float) -> float:
        return _percentile(self.latencies_ms, p)

    def latency_cdf(self) -> List[Tuple[float, float]]:
        """``(latency_ms, fraction_of_ops_at_or_below)`` at the fractions
        ``1/CDF_POINTS, 2/CDF_POINTS, ..., 1``."""
        n = len(self.latencies_ms)
        if n == 0:
            return []
        out = []
        for i in range(1, CDF_POINTS + 1):
            frac = i / CDF_POINTS
            out.append((_percentile(self.latencies_ms, frac - 1e-9), frac))
        return out

    def as_dict(self) -> Dict[str, Any]:
        return {
            "config": dataclasses.asdict(self.config),
            "clock": self.clock,
            "faults": self.fault_description,
            "duration_s": round(self.duration_s, 3),
            "ops_completed": self.ops_completed,
            "throughput_ops_s": round(self.throughput, 1),
            "latency_ms": {
                "mean": round(
                    sum(self.latencies_ms) / len(self.latencies_ms), 3
                )
                if self.latencies_ms
                else 0.0,
                "p50": round(self.percentile(0.50), 3),
                "p95": round(self.percentile(0.95), 3),
                "p99": round(self.percentile(0.99), 3),
                "max": round(self.latencies_ms[-1], 3)
                if self.latencies_ms
                else 0.0,
            },
            "latency_cdf": [
                [round(ms, 3), round(frac, 3)]
                for ms, frac in self.latency_cdf()
            ],
            "violations": [str(v) for v in self.violations],
            "lost_acked_writes": self.lost_acked_writes,
            "failovers": self.failovers,
            "checkpoint_problems": self.checkpoint_problems,
            "clock_stats": self.clock_stats,
            "counters": self.counters,
            "sim_prediction": self.sim_prediction,
            "ok": self.ok,
        }

    def render(self) -> str:
        d = self.as_dict()
        lines = [
            f"live run: {self.config.n_sequencers} sequencers, "
            f"{self.config.n_servers} servers, {self.config.n_clients} "
            f"clients, {self.ops_completed} ops in {self.duration_s:.2f}s "
            f"({self.throughput:.1f} op/s)",
            f"  clock: {self.clock or 'none'}   faults: "
            f"{self.fault_description}",
            f"  latency ms: p50={d['latency_ms']['p50']} "
            f"p95={d['latency_ms']['p95']} p99={d['latency_ms']['p99']} "
            f"max={d['latency_ms']['max']}",
            f"  causal audit: {len(self.violations)} violation(s); "
            f"lost acked writes: {self.lost_acked_writes}; "
            f"failovers: {self.failovers}",
        ]
        if self.counters:
            interesting = (
                "net.retransmits",
                "net.drops_injected",
                "net.dups_injected",
                "net.dedup_hits",
                "net.reconnects",
                "net.crashes",
                "net.restarts",
            )
            parts = [
                f"{k.split('.', 1)[1]}={self.counters[k]}"
                for k in interesting
                if k in self.counters
            ]
            lines.append("  transport: " + " ".join(parts))
            if self.clock_stats:
                fates = ("piggybacked", "flushed", "dup", "lost", "rejected")
                parts = [
                    f"{k}={self.counters.get('net.ctl_' + k, 0)}" for k in fates
                ]
                lines.append("  control: " + " ".join(parts))
        if self.clock_stats:
            cs = self.clock_stats
            lines.append(
                f"  clock seam: {cs.get('events', 0)} events, "
                f"{cs.get('finalized_fraction', 1.0):.1%} finalized online, "
                f"max {cs.get('max_elements', 0)} elements"
            )
        if self.checkpoint_problems:
            lines.append(
                f"  checkpoint permanence: "
                f"{len(self.checkpoint_problems)} problem(s)"
            )
        if self.sim_prediction:
            sp = self.sim_prediction
            lines.append(
                f"  virtual-time run (same config): "
                f"{sp['completed_operations']} ops, inline ts <= "
                f"{sp['inline_max_elements']} elements (vector: "
                f"{sp['vector_elements']}), audit "
                f"{'clean' if not sp['violations'] else 'FAILED'}"
            )
        lines.append(f"  verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def simulator_prediction(config: StoreConfig) -> Dict[str, Any]:
    """:func:`~repro.applications.causal_kv.run_store` of the identical
    config: the same roles, fault-free, on virtual time."""
    run = run_store(config)
    violations = [str(v) for v in audit_operations(run.operations, run.writes)]
    return {
        "completed_operations": run.completed_operations,
        "inline_max_elements": run.inline_max_elements,
        "vector_elements": run.vector_elements,
        "data_hops": run.traffic.data_hops,
        "meta_hops": run.traffic.meta_hops,
        "violations": violations,
    }


async def run_live_store(
    config: StoreConfig,
    clock_name: Optional[str] = None,
    fault_model: Optional[FaultModel] = None,
    crash_plan: Optional[CrashPlan] = None,
    policy: Optional[TransportPolicy] = None,
    registry: Optional[MetricsRegistry] = None,
    compare_sim: bool = False,
    stopping: Optional[Callable[[], bool]] = None,
) -> LiveReport:
    """Deploy, load, crash, recover, quiesce, audit.  The whole experiment.

    ``stopping`` is polled between operations-in-flight checks by the crash
    watcher; a graceful-shutdown handler can flip it to abandon the scripted
    crash early (sessions themselves finish their in-flight operation and
    are cancelled by the caller's signal handling).  ``compare_sim`` adds
    :func:`simulator_prediction`, run in a worker thread on its own loop.
    """
    run = await deploy(
        config, clock_name, fault_model, crash_plan, policy, registry, stopping
    )
    if compare_sim:
        run.report.sim_prediction = await asyncio.to_thread(
            simulator_prediction, config
        )
    return run.report


class LiveRun(NamedTuple):
    """One :func:`deploy`: its report and what the report summarises."""

    report: LiveReport
    clock_host: Optional[LiveClockHost]
    operations: List[Operation]  # linked to ``writes``
    writes: List[WriteRecord]
    #: the events only termination finalized: not final online
    final_at_termination: List[EventId]


async def deploy(
    config: StoreConfig,
    clock_name: Optional[str] = None,
    fault_model: Optional[FaultModel] = None,
    crash_plan: Optional[CrashPlan] = None,
    policy: Optional[TransportPolicy] = None,
    registry: Optional[MetricsRegistry] = None,
    stopping: Optional[Callable[[], bool]] = None,
) -> LiveRun:
    """:func:`run_live_store`'s experiment, with the run behind its report."""
    spec = ClusterSpec(config)
    if registry is None:  # not ``or``: the caller's registry starts empty, falsy
        registry = MetricsRegistry()
    policy = policy or TransportPolicy(
        request_timeout=0.25, max_retries=5, seed=config.seed
    )
    loop = asyncio.get_running_loop()
    with use_registry(registry):
        interposer = ChaosInterposer(fault_model, seed=config.seed)
        clock_host: Optional[LiveClockHost] = None
        if clock_name is not None:
            clock_host = LiveClockHost(build_live_clock(clock_name, spec), spec)
        book = AddressBook()
        supervisor = Supervisor(clock_host)
        for pid in range(spec.n_processes):
            supervisor.register(
                pid,
                lambda p=pid: make_node(
                    p, spec, book, policy, interposer, clock_host
                ),
            )
        await supervisor.start_all()

        async def crash_watcher() -> None:
            assert crash_plan is not None
            done = counter("net.ops_completed")
            while done.value < crash_plan.after_ops:
                if stopping is not None and stopping():
                    return
                await asyncio.sleep(0.01)
            await supervisor.crash_and_restart(
                crash_plan.pid, crash_plan.downtime
            )

        watcher: Optional[asyncio.Task] = None
        if crash_plan is not None:
            watcher = asyncio.ensure_future(crash_watcher())

        clients: List[ClientNode] = [
            supervisor.nodes[pid]  # type: ignore[misc]
            for pid in spec.clients
        ]
        started = loop.time()
        try:
            await asyncio.gather(*(c.run_session() for c in clients))
        finally:
            if watcher is not None:
                if not watcher.done():
                    # sessions ended before the scripted crash fired (or we
                    # are unwinding on error): run it down or abandon it
                    if counter("net.ops_completed").value >= (
                        crash_plan.after_ops if crash_plan else 0
                    ):
                        await watcher
                    else:
                        watcher.cancel()
                        await asyncio.gather(watcher, return_exceptions=True)
                else:
                    watcher.result()  # surface crash/restart failures
        duration = loop.time() - started

        # quiesce: stop injecting faults and let replication finish on every
        # node before any node flushes its controls -- replication still
        # emits controls, and a flush sent too early would make the number
        # of frames depend on timing
        interposer.enable(False)
        servers: List[ServerNode] = [
            supervisor.nodes[pid]  # type: ignore[misc]
            for pid in spec.servers
        ]
        for node in supervisor.nodes.values():
            await node.drain()
        for node in supervisor.nodes.values():
            await node.flush_controls()

        clock_stats: Dict[str, Any] = {}
        checkpoint_problems: List[str] = []
        at_termination: List[EventId] = []
        if clock_host is not None:
            clock_stats = clock_host.stats()  # online finalization fraction
            at_termination = clock_host.clock.finalize_at_termination()
            flushed = clock_host.stats()
            clock_stats["max_elements"] = flushed["max_elements"]
            clock_stats["finalized_after_flush"] = flushed["finalized"]
            checkpoint_problems = supervisor.verify_permanence()

        writes, index = collect_writes(servers)
        operations, lost = link_operations(clients, index)
        violations = audit_operations(operations, writes)
        failovers = sum(c.failovers for c in clients)

        await supervisor.stop_all()

        counters = {
            name: registry.counter_value(name)
            for name in (
                "net.frames_sent",
                "net.frames_received",
                "net.retransmits",
                "net.request_timeouts",
                "net.drops_injected",
                "net.dups_injected",
                "net.dedup_hits",
                "net.dedup_replayed",
                "net.dedup_joined",
                "net.responses_unmatched",
                "net.frames_rejected",
                "net.commit_dedup",
                "net.reconnects",
                "net.connect_failures",
                "net.failovers",
                "net.crashes",
                "net.restarts",
                "net.repl_failures",
                "net.ctl_piggybacked",
                "net.ctl_flushed",
                "net.ctl_dup",
                "net.ctl_lost",
                "net.ctl_rejected",
            )
        }

    report = LiveReport(
        config=config,
        clock=clock_name,
        duration_s=duration,
        ops_completed=sum(len(c.operations) for c in clients),
        latencies_ms=sorted(
            ms for c in clients for ms in c.latencies_ms
        ),
        violations=violations,
        lost_acked_writes=lost,
        failovers=failovers,
        checkpoint_problems=checkpoint_problems,
        clock_stats=clock_stats,
        counters=counters,
        metrics=registry.as_dict(),
        fault_description=interposer.describe(),
    )
    return LiveRun(report, clock_host, operations, writes, at_termination)


def run_live_store_sync(*args: Any, **kwargs: Any) -> LiveReport:
    """Blocking wrapper around :func:`run_live_store` for CLI/tests."""
    return asyncio.run(run_live_store(*args, **kwargs))
