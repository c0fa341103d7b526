"""Chaos harness: sweep fault scenarios × clock algorithms, assert invariants.

The paper's central claim is that inline timestamps stay cheap because
finalization rides on a small control round trip.  This harness checks that
the claim survives *realistic* failure conditions, not just the clean
asynchronous model: for every scenario (bursty loss, duplication, a healing
partition, crash-recovery, plain control loss) and every attached algorithm
it runs a full simulation and asserts the correctness invariant —

    every pair of finalized timestamps must agree with happened-before
    computed from the surviving execution

(``characterizes`` for exact schemes, ``is_consistent`` for lossy ones such
as Lamport clocks).  For crash scenarios it additionally verifies
*permanence across recovery*: restoring the clock-state checkpoint taken at
the crash instant must reproduce, bit for bit, every timestamp that was
final before the crash.

FIFO-requiring clocks (``requires_fifo_app``) are skipped automatically —
the whole point of the sweep is lossy, non-FIFO delivery, which those
schemes reject by design (see ``Simulation``'s construction-time guard).

Use :func:`run_chaos` programmatically, ``repro chaos`` from the command
line, or ``benchmarks/bench_e16_fault_tolerance.py`` for the asserted
reproduction of the acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.clocks.base import ClockAlgorithm
from repro.core import HappenedBeforeOracle
from repro.faults.models import (
    CrashSchedule,
    DuplicationFault,
    FaultModel,
    GilbertElliottLoss,
    PartitionFault,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import RunTracer
from repro.sim.network import RetryPolicy
from repro.sim.workload import UniformWorkload, Workload

if TYPE_CHECKING:  # runtime import is deferred: runner imports faults.models
    from repro.sim.runner import Simulation, SimulationResult
from repro.topology.graph import CommunicationGraph

ClockFactory = Callable[[], ClockAlgorithm]


@dataclass(frozen=True)
class ChaosScenario:
    """One fault configuration for the sweep."""

    name: str
    fault: Optional[FaultModel] = None
    control_loss: float = 0.0

    def describe(self) -> str:
        parts = []
        if self.fault is not None:
            parts.append(self.fault.describe())
        if self.control_loss:
            parts.append(f"control_loss={self.control_loss:.0%}")
        return " + ".join(parts) or "no faults"


def default_scenarios(
    n_processes: int, quick: bool = False
) -> List[ChaosScenario]:
    """The standard sweep: every fault class the models support.

    Sized for a run of a few tens of virtual time units; partition and
    crash windows sit mid-run so both the faulty and the healed regime are
    exercised.  ``quick`` keeps one representative of each mechanism
    (loss, duplication, crash) for smoke tests.
    """
    if n_processes < 2:
        raise ValueError("need at least two processes")
    half = list(range(n_processes // 2))
    rest = list(range(n_processes // 2, n_processes))
    victim = n_processes - 1  # never the cover/center candidate p0
    scenarios = [
        ChaosScenario("baseline"),
        ChaosScenario(
            "burst-loss-30",
            fault=GilbertElliottLoss(p_enter_burst=0.15, p_exit_burst=0.35),
        ),
        ChaosScenario("control-loss-10", control_loss=0.10),
        ChaosScenario(
            "duplication", fault=DuplicationFault(rate=0.25, copies=2)
        ),
        ChaosScenario(
            "partition-heal",
            fault=PartitionFault([half, rest], start=5.0, duration=6.0),
        ),
        ChaosScenario(
            "crash-recovery",
            fault=CrashSchedule({victim: [(4.0, 10.0)]}),
        ),
    ]
    if quick:
        keep = {"burst-loss-30", "duplication", "crash-recovery"}
        scenarios = [s for s in scenarios if s.name in keep]
    return scenarios


@dataclass(frozen=True)
class ChaosCell:
    """Outcome of one scenario × algorithm combination."""

    scenario: str
    clock: str
    causality_ok: bool
    checkpoint_ok: bool
    finalized_fraction: float
    mean_latency: float
    retransmissions: int
    duplicates_suppressed: int
    abandoned: int
    dropped_app: int
    dropped_control: int
    suppressed_events: int

    @property
    def ok(self) -> bool:
        return self.causality_ok and self.checkpoint_ok


@dataclass
class ChaosReport:
    """All cells of one sweep, plus skipped clock names and the sweep's
    merged metrics registry (cells merged in scenario order, so the
    registry is identical wherever the scenarios ran)."""

    cells: List[ChaosCell] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def failures(self) -> List[ChaosCell]:
        return [cell for cell in self.cells if not cell.ok]

    def rows(self) -> List[List[object]]:
        """Tabular view for :func:`repro.analysis.reports.format_table`."""
        return [
            [
                cell.scenario,
                cell.clock,
                "OK" if cell.ok else "FAIL",
                round(cell.finalized_fraction, 3),
                round(cell.mean_latency, 2),
                cell.retransmissions,
                cell.duplicates_suppressed,
                cell.abandoned,
                cell.dropped_app,
                cell.dropped_control,
            ]
            for cell in self.cells
        ]


ROW_HEADER = [
    "scenario",
    "clock",
    "invariant",
    "finalized frac",
    "mean latency",
    "retx",
    "dups supp",
    "abandoned",
    "app drop",
    "ctl drop",
]


def _checkpoint_permanence_ok(
    result: SimulationResult,
    name: str,
    factory: ClockFactory,
) -> bool:
    """Timestamps finalized before a crash must survive checkpoint+restore.

    For every crash checkpoint: restore it into a fresh instance and compare
    the timestamp of each event that had been finalized by the crash instant
    against the run's final assignment.  Finality means permanence, so any
    difference is a correctness bug (either in the algorithm or in
    checkpoint/restore).
    """
    if not result.crash_checkpoints:
        return True
    final_assignment = result.assignments[name]
    fin_times = result.finalization_times[name]
    for crash_time, snapshots in result.crash_checkpoints:
        restored = factory()
        restored.restore(snapshots[name])
        for eid, t_final in fin_times.items():
            if t_final > crash_time:
                continue
            then = restored.timestamp(eid)
            if eid not in final_assignment:
                return False
            if then is None or then != final_assignment[eid]:
                return False
    return True


def chaos_workload(events_per_process: int) -> Workload:
    """A fresh instance of the sweep's default workload."""
    return UniformWorkload(events_per_process=events_per_process, p_local=0.2)


def split_fifo_clocks(
    clock_factories: Mapping[str, ClockFactory],
) -> Tuple[Dict[str, ClockFactory], List[str]]:
    """``(usable, skipped)``: the sweep's clocks, and the names it cannot run
    because they require FIFO application channels."""
    usable: Dict[str, ClockFactory] = {}
    skipped: List[str] = []
    for name, factory in clock_factories.items():
        if factory().requires_fifo_app:
            skipped.append(name)
        else:
            usable[name] = factory
    return usable, skipped


def run_scenario(
    graph: CommunicationGraph,
    scenario: ChaosScenario,
    factories: Mapping[str, ClockFactory],
    seed: int,
    reliable: bool,
    retry: RetryPolicy,
    workload: Workload,
) -> Tuple[List[ChaosCell], List[Dict[str, Any]], Dict[str, Any]]:
    """Run one scenario across every clock in *factories* — one sweep cell.

    Returns ``(cells, trace_records, metrics_export)``.  The scenario runs
    under its *own* :class:`~repro.obs.metrics.MetricsRegistry` (installed
    via :func:`~repro.obs.metrics.use_registry`, so the simulator's and the
    validators' instrumentation land there and nowhere else) and builds a
    headerless trace fragment.  Both come back as plain JSON-safe data that
    the caller merges in scenario order — which is what makes the trace of
    a sweep sharded over the fabric byte-identical to :func:`run_chaos`'s.
    """
    from repro.sim.runner import Simulation  # deferred: avoids import cycle

    registry = MetricsRegistry()
    tracer = RunTracer(emit_header=False)
    tracer.begin_span(
        "scenario",
        scenario=scenario.name,
        faults=scenario.describe(),
        seed=seed,
        reliable=reliable,
    )
    clocks = {name: factory() for name, factory in factories.items()}
    with use_registry(registry):
        sim = Simulation(
            graph,
            seed=seed,
            clocks=clocks,
            control_loss_rate=scenario.control_loss,
            fault_model=scenario.fault,
            control_retry=retry if reliable else None,
            metrics=registry,
        )
        result = sim.run(workload)
        oracle = HappenedBeforeOracle(result.execution)
        cells: List[ChaosCell] = []
        for name, algo in clocks.items():
            assignment = result.assignments[name]
            validation = assignment.validate(oracle)
            causality_ok = (
                validation.characterizes
                if algo.characterizes_causality
                else validation.is_consistent
            )
            checkpoint_ok = _checkpoint_permanence_ok(
                result, name, factories[name]
            )
            latencies = result.finalization_latencies(name)
            mean_latency = (
                sum(latencies.values()) / len(latencies) if latencies else 0.0
            )
            stats = result.stats[name]
            cell = ChaosCell(
                scenario=scenario.name,
                clock=name,
                causality_ok=causality_ok,
                checkpoint_ok=checkpoint_ok,
                finalized_fraction=result.fraction_finalized_during_run(
                    name
                ),
                mean_latency=mean_latency,
                retransmissions=stats.control_retransmissions,
                duplicates_suppressed=stats.control_duplicates_suppressed,
                abandoned=stats.control_abandoned,
                dropped_app=result.dropped_app_messages
                + result.crash_dropped_app_messages,
                dropped_control=result.dropped_control_messages,
                suppressed_events=result.suppressed_events,
            )
            cells.append(cell)
            tracer.event(
                "cell",
                scenario=scenario.name,
                clock=name,
                ok=cell.ok,
                causality_ok=cell.causality_ok,
                checkpoint_ok=cell.checkpoint_ok,
                finalized_fraction=round(cell.finalized_fraction, 6),
                mean_latency=round(cell.mean_latency, 6),
                retransmissions=cell.retransmissions,
                dropped_app=cell.dropped_app,
                dropped_control=cell.dropped_control,
            )
    tracer.snapshot_metrics(scenario.name, registry)
    tracer.end_span("scenario", scenario=scenario.name)
    return cells, tracer.records, registry.as_dict()


def run_chaos(
    graph: CommunicationGraph,
    clock_factories: Mapping[str, ClockFactory],
    scenarios: Optional[Sequence[ChaosScenario]] = None,
    events_per_process: int = 20,
    seed: int = 0,
    reliable: bool = True,
    retry: Optional[RetryPolicy] = None,
    tracer: Optional[RunTracer] = None,
) -> ChaosReport:
    """Run every scenario × algorithm cell and validate the invariants.

    ``clock_factories`` maps display names to zero-argument constructors —
    a fresh instance is built per cell because both clocks and simulations
    are single-use.  ``reliable`` enables the retransmitting control
    transport (*retry* overrides its parameters).  FIFO-requiring clocks
    are recorded in ``ChaosReport.skipped`` instead of run.

    This is the in-process entry point, and the reference the fabric is
    tested against: ``repro chaos`` runs the same scenarios as fabric cells
    (:func:`repro.fabric.drivers.chaos_cell_specs`), which is also the only
    way to spread them over processes.

    Every scenario records into a scenario-local metrics registry; the
    registries are merged in scenario order into ``ChaosReport.metrics``.
    With *tracer*, each scenario's span/event records and its metrics
    snapshot are appended to the trace, again in scenario order.
    """
    if scenarios is None:
        scenarios = default_scenarios(graph.n_vertices)
    if retry is None:
        retry = RetryPolicy()

    usable, skipped = split_fifo_clocks(clock_factories)
    report = ChaosReport(skipped=skipped)
    if tracer is not None and skipped:
        tracer.event("skipped-clocks", clocks=sorted(skipped))

    for scenario in scenarios:
        cells, records, metrics_export = run_scenario(
            graph, scenario, usable, seed, reliable, retry,
            chaos_workload(events_per_process),
        )
        report.cells.extend(cells)
        report.metrics.merge(metrics_export)
        if tracer is not None:
            tracer.extend(records)
    if tracer is not None:
        tracer.event(
            "sweep-summary",
            cells=len(report.cells),
            failures=len(report.failures()),
            ok=report.ok,
        )
    return report
