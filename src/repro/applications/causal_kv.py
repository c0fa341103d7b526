"""A causally consistent key-value store on the Figure-4 architecture.

The paper's Figure 4 sketches an alternative deployment for causal shared
memory: clients and servers communicate *only through sequencers*, which by
construction form a vertex cover of the communication graph — so inline
timestamps need ``2·(#sequencers)+2`` elements regardless of how many
clients and servers exist.  The optimization discussed in Section 5 lets
bulk data travel directly between servers/clients while only *metadata*
(timestamp information) is routed through sequencers.

The store has one implementation, the roles of :mod:`repro.net.node`, and
``repro kv-live`` runs them on TCP.  This module holds the store's
configuration and records, runs the roles on virtual time
(:func:`run_store`), and audits a run against the *semantic* causal order
(:func:`audit_operations`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.clocks.replay import TimestampAssignment
from repro.core.events import ProcessId
from repro.core.execution import Execution
from repro.obs import MetricsRegistry
from repro.topology.graph import CommunicationGraph


@dataclass(frozen=True)
class StoreConfig:
    """Sizing and workload knobs for one store deployment.

    Validated at construction so :func:`run_store`, ``repro kv-live`` and
    ``repro serve`` reject nonsense configurations with the same message;
    the CLI surfaces :class:`ValueError` through its ``repro: error:`` path.
    """

    n_sequencers: int = 2
    n_servers: int = 3
    n_clients: int = 4
    n_keys: int = 4
    ops_per_client: int = 10
    write_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_sequencers", "n_servers", "n_clients", "n_keys"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if not isinstance(self.ops_per_client, int) or self.ops_per_client < 0:
            raise ValueError(
                f"ops_per_client must be a non-negative integer, "
                f"got {self.ops_per_client!r}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(
                f"write_fraction must be within [0, 1], "
                f"got {self.write_fraction!r}"
            )

    def total_processes(self) -> int:
        return self.n_sequencers + self.n_servers + self.n_clients


@dataclass
class Operation:
    """A completed client operation, in session order."""

    client: ProcessId
    session_index: int  # 0-based position in the client's session
    kind: str  # "w" or "r"
    key: str
    version: int  # assigned (write) or returned (read; 0 = initial)
    write_index: Optional[int]  # own index (write) / returned (read)


@dataclass
class WriteRecord:
    """One committed write."""

    key: str
    version: int
    writer: ProcessId
    writer_session_index: int
    deps: Dict[str, int]  # writer's session dependencies at issue


#: the store's frame types, each with the direction of its hops that carries
#: a value: a write (``op/w``), its commit and its replication go out as
#: requests, a read's value (``op/r``, ``read``) comes back as a response.
#: The other direction carries metadata only: an ack, a version, a dep map.
VALUE_HOPS: Dict[str, str] = {
    "op/w": "request", "commit": "request", "repl": "request",
    "op/r": "response", "read": "response",
}


@dataclass(frozen=True)
class TrafficReport:
    """Application hops of one run per frame type, data vs metadata.

    A *hop* is one message on one graph edge, however often it is resent.
    Every edge has a sequencer end, so every hop loads a sequencer; routing
    data direct would move the ``data`` hops off them, not the ``meta`` ones.
    """

    data: Dict[str, int]
    meta: Dict[str, int]

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "TrafficReport":
        """The ``net.data_hops`` / ``net.meta_hops`` counters of a run."""
        return cls(
            data={f: registry.counter_value("net.data_hops", frame=f) for f in VALUE_HOPS},
            meta={f: registry.counter_value("net.meta_hops", frame=f) for f in VALUE_HOPS},
        )

    @property
    def data_hops(self) -> int:
        return sum(self.data.values())

    @property
    def meta_hops(self) -> int:
        return sum(self.meta.values())


@dataclass
class StoreRunResult:
    """Everything a Figure-4 experiment needs from one store run."""

    config: StoreConfig
    graph: CommunicationGraph
    sequencers: List[ProcessId]
    execution: Execution  # the run's events and messages
    assignment: TimestampAssignment  # the inline clock's, over *execution*
    writes: List[WriteRecord]
    operations: List[Operation]
    traffic: TrafficReport

    @property
    def inline_max_elements(self) -> int:
        """Measured inline timestamp size: at most 2·|sequencers| + 2."""
        return self.assignment.max_elements()

    @property
    def vector_elements(self) -> int:
        """Full vector clock size for the same system."""
        return self.graph.n_vertices

    @property
    def completed_operations(self) -> int:
        return len(self.operations)


def run_store(config: StoreConfig) -> StoreRunResult:
    """Run the store's live roles on virtual time with the inline clock.

    The code of ``repro kv-live --clock inline-cover``, fault-free, on a
    :class:`~repro.net.virtual.VirtualLoop`: deterministic, and as fast as
    the processor allows.  The execution and the inline assignment are built
    from the clock host's events once the run is over.
    """
    # on use: repro.net.node imports this module
    from repro.net.loadgen import deploy
    from repro.net.virtual import run_virtual

    registry = MetricsRegistry()
    run = run_virtual(deploy(config, "inline-cover", registry=registry))
    execution = run.clock_host.execution()
    late = set(run.final_at_termination)
    online = [ev.eid for ev in execution.all_events() if ev.eid not in late]
    return StoreRunResult(
        config=config,
        graph=execution.graph,
        sequencers=list(range(config.n_sequencers)),  # ids 0..S-1
        execution=execution,
        assignment=TimestampAssignment(run.clock_host.clock, execution, online),
        writes=run.writes,
        operations=run.operations,
        traffic=TrafficReport.from_registry(registry),
    )


@dataclass(frozen=True)
class CausalViolation:
    """One audited causal-consistency failure, with enough context to debug
    a live run: which session, which key, what was expected vs observed, and
    the dependency edge that was violated.

    ``str()`` renders the historical human-readable message, so callers that
    log strings and tests that compare against ``[]`` are unaffected.
    """

    kind: str  # "regression" | "stale-read"
    client: ProcessId
    session_index: int
    key: str
    observed_version: int
    expected_version: int
    #: the causal edge the read failed to respect: the operation (client,
    #: session_index) that put ``expected_version`` of ``key`` into this
    #: read's past, or ``None`` for a same-session regression.
    dependency: Optional[Tuple[ProcessId, int]] = None

    def __str__(self) -> str:
        if self.kind == "regression":
            return (
                f"client p{self.client} saw {self.key} regress "
                f"{self.expected_version} -> {self.observed_version}"
            )
        return (
            f"read #{self.session_index} of {self.key} by p{self.client} "
            f"returned v{self.observed_version} < causally required "
            f"v{self.expected_version}"
        )


def audit_operations(
    operations: List[Operation], writes: List[WriteRecord]
) -> List[CausalViolation]:
    """Audit completed operations against the semantic causal order.

    The causal order over operations is: same-session order, plus
    write → read-that-returns-it (reads-from), plus write inherits the
    issuing session's prefix, transitively.  Causal consistency requires a
    read of key ``k`` to return a version ≥ that of any same-key write in
    its causal past.  Shared by :func:`verify_causal_reads` and
    :mod:`repro.net.loadgen`; returns structured :class:`CausalViolation`
    records (empty list = consistent).
    """
    by_client: Dict[ProcessId, List[Operation]] = {}
    for op in operations:
        by_client.setdefault(op.client, []).append(op)
    for ops in by_client.values():
        ops.sort(key=lambda o: o.session_index)

    def past_max_versions(
        op: Operation,
    ) -> Dict[str, Tuple[int, Tuple[ProcessId, int]]]:
        """Per-key max written version in *op*'s semantic causal past,
        together with the operation that pulled it into the past."""
        best: Dict[str, Tuple[int, Tuple[ProcessId, int]]] = {}
        seen: Set[Tuple[ProcessId, int]] = set()
        stack: List[Tuple[ProcessId, int]] = [(op.client, op.session_index)]

        def raise_to(key: str, version: int, via: Tuple[ProcessId, int]) -> None:
            if version > best.get(key, (0, via))[0] or key not in best:
                best[key] = (version, via)

        while stack:
            client, upto = stack.pop()
            for prev in by_client.get(client, [])[:upto]:
                ident = (prev.client, prev.session_index)
                if ident in seen:
                    continue
                seen.add(ident)
                if prev.kind == "w":
                    raise_to(prev.key, prev.version, ident)
                    w = writes[prev.write_index]  # type: ignore[index]
                    for dk, dv in w.deps.items():
                        raise_to(dk, dv, ident)
                elif prev.write_index is not None:
                    w = writes[prev.write_index]
                    raise_to(w.key, w.version, ident)
                    for dk, dv in w.deps.items():
                        raise_to(dk, dv, ident)
                    stack.append((w.writer, w.writer_session_index))
        return best

    problems: List[CausalViolation] = []
    last_seen: Dict[Tuple[ProcessId, str], int] = {}
    for op in operations:
        if op.kind != "r":
            continue
        keyed = (op.client, op.key)
        if op.version < last_seen.get(keyed, 0):
            problems.append(CausalViolation(
                "regression", op.client, op.session_index, op.key, op.version,
                last_seen[keyed],
            ))
        last_seen[keyed] = max(last_seen.get(keyed, 0), op.version)

        past = past_max_versions(op)
        required, via = past.get(op.key, (0, (op.client, op.session_index)))
        if op.version < required:
            problems.append(CausalViolation(
                "stale-read", op.client, op.session_index, op.key, op.version,
                required, dependency=via,
            ))
    return problems


def verify_causal_reads(run: StoreRunResult) -> List[CausalViolation]:
    """Audit a :func:`run_store` run; see :func:`audit_operations`."""
    return audit_operations(run.operations, run.writes)
