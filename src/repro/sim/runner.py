"""The simulation runner: executions + clocks + control transport + timing.

:class:`Simulation` glues everything together.  A workload generates local
and send actions; the runner appends the corresponding events to an
:class:`~repro.core.execution.ExecutionBuilder`, drives every attached
:class:`~repro.clocks.base.ClockAlgorithm` through its hooks, transports
application payloads and control messages over the simulated
:class:`~repro.sim.network.Network`, and records for every event both its
occurrence time and — per algorithm — the virtual time at which its
timestamp became permanent.

Control transport policies (paper Section 3.2 discusses both):

- ``EAGER`` — each control message travels on a dedicated FIFO control
  channel (the default);
- ``PIGGYBACK`` — control payloads wait at the emitting process and ride on
  the *next application message* to their destination.  Cheaper, but
  finalization is delayed until such a message happens to be sent (the
  trade-off the paper points out), and some controls may never be
  transported — termination finalization then completes them.

Robustness machinery (see :mod:`repro.faults`):

- a pluggable :class:`~repro.faults.models.FaultModel` injects structured
  failures — bursty loss, duplication, partitions, process crashes — on top
  of the independent ``app_loss_rate`` / ``control_loss_rate`` knobs;
- passing a :class:`~repro.sim.network.RetryPolicy` as ``control_retry``
  upgrades the EAGER control transport to an at-least-once one
  (:class:`~repro.sim.network.ReliableLink`): positive acks and timeout
  retransmission with exponential backoff, so inline finalization survives
  lossy control channels instead of degrading to offline
  (termination-only) finalization.

Each attached clock runs on a :class:`~repro.clocks.host.ClockHost`, whose
control-delivery policy is the transport above: every control copy that
survives reaches the host, and the clock is the one place that refuses a
second copy (the host counts it as ``control_duplicates_suppressed``).
"""

from __future__ import annotations

import enum
import random
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.clocks.base import ClockAlgorithm
from repro.clocks.host import ClockHost
from repro.clocks.replay import TimestampAssignment
from repro.core.events import Event, EventId, MessageId, ProcessId
from repro.core.execution import Execution, ExecutionBuilder
from repro.core.happened_before import HappenedBeforeOracle
from repro.core.incremental import IncrementalHBOracle
from repro.faults.models import DELIVER, FaultModel
from repro.obs.metrics import (
    BYTE_BUCKETS,
    VTIME_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.sim.network import (
    DelayModel,
    Network,
    ReliableLink,
    RetryPolicy,
    UniformDelay,
)
from repro.sim.scheduler import EventScheduler
from repro.sim.workload import Workload
from repro.topology.graph import CommunicationGraph


class ControlTransport(enum.Enum):
    """How inline-algorithm control messages reach their destination."""

    EAGER = "eager"
    PIGGYBACK = "piggyback"


@dataclass
class AlgorithmStats:
    """Per-algorithm communication accounting for one simulation run.

    The ``control_*`` transport counters are populated by the reliable
    control transport (``control_retry``) and by the clock's refusal of
    duplicated control copies; they stay 0 on a fault-free run with the
    fire-and-forget transport.
    """

    app_payload_elements: int = 0
    control_messages: int = 0
    control_elements: int = 0
    #: datagram copies re-sent after an acknowledgement timeout
    control_retransmissions: int = 0
    #: control copies the clock refused as already applied or held
    control_duplicates_suppressed: int = 0
    #: acknowledgements received by the reliable transport
    control_acks: int = 0
    #: control messages given up on after exhausting retries
    control_abandoned: int = 0


class _TimeTable(Mapping[EventId, float]):
    """``{event id: virtual time}``, read-only: what ``event_times`` and
    ``finalization_times[name]`` are.  ``rows[p][k - 1]`` is the time of
    event ``(p, k)`` (``None``, or a short row, where it has none); ``ids``
    are the events that have one, in the order they got it, which is the
    order of ``iter`` / ``items()`` / ``values()``.  Both are filled by
    position, and no event id is hashed."""

    __slots__ = ("rows", "ids")

    def __init__(self, rows: List[List[Optional[float]]]) -> None:
        self.rows = rows
        self.ids: List[EventId] = []

    def __getitem__(self, eid: EventId) -> float:
        try:
            t = self.rows[eid.proc][eid.index - 1]
        except (AttributeError, IndexError):  # no event id, or none of this run's
            t = None
        if t is None:
            raise KeyError(eid)
        return t

    def __iter__(self) -> Iterator[EventId]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class _AttachedClock(ClockHost):
    """One attached clock's host, with what the runner's control transports
    keep for it; its policy is :meth:`Simulation._emit_control`, its timer
    the scheduler.  ``piggy_elems``, like ``delays``, is a ``{value:
    count}`` tally that becomes a histogram once, after the run."""

    __slots__ = ("name", "link", "stats", "pending", "piggy_elems")

    def __init__(
        self, sim: "Simulation", name: str, clock: ClockAlgorithm,
        link: Optional[ReliableLink],
    ) -> None:
        super().__init__(clock, partial(sim._emit_control, self), sim._scheduler)
        self.name = name
        #: the reliable control transport (``control_retry`` runs only)
        self.link = link
        self.stats = AlgorithmStats()
        #: PIGGYBACK: control payloads waiting for a carrier, per channel
        self.pending: Dict[Tuple[ProcessId, ProcessId], List[Any]] = {}
        self.piggy_elems: Dict[int, int] = {}


_NOT_STARTED = "Simulation has not started: call run()"

#: per attached clock, the piggybacked controls a message carries (``None``
#: for none), in ``_clocks`` order
_Riders = Sequence[Optional[List[Any]]]


def _fold(histogram: Histogram, tally: Mapping[int, int], scale: int = 1) -> None:
    """Feed a ``{value: count}`` tally of integers into *histogram*."""
    for value, count in tally.items():
        histogram.observe_n(scale * value, count)


@dataclass
class SimulationResult:
    """Everything observable from one simulated run."""

    execution: Execution
    graph: CommunicationGraph
    duration: float
    #: ``{event id: occurrence time}``, read-only, in arrival order
    event_times: Mapping[EventId, float]
    assignments: Dict[str, TimestampAssignment]
    #: per clock, when each event finalized *during the run* became
    #: permanent: read-only, in finalization order
    finalization_times: Dict[str, Mapping[EventId, float]]
    stats: Dict[str, AlgorithmStats]
    app_messages: int
    dropped_app_messages: int = 0
    dropped_control_messages: int = 0
    #: extra application-message copies suppressed at the receiver
    duplicate_app_deliveries: int = 0
    #: application messages whose every copy found the destination crashed
    crash_dropped_app_messages: int = 0
    #: workload actions skipped because the acting process was down
    suppressed_events: int = 0
    #: piggybacked controls whose carrier was dropped and that stayed queued
    piggyback_controls_retained: int = 0
    #: ``(crash_time, {clock_name: checkpoint})`` taken at each crash instant
    crash_checkpoints: List[Tuple[float, Dict[str, Any]]] = field(
        default_factory=list
    )
    #: the run's metrics registry (see :mod:`repro.obs`): per-clock
    #: finalization-delay histograms, piggyback sizes, transport counters
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: the streaming causality oracle fed during the run (``online_oracle``)
    online_oracle: Optional[IncrementalHBOracle] = None

    def hb_oracle(self) -> HappenedBeforeOracle:
        """Ground-truth batch oracle for the run's execution.

        With ``online_oracle=True`` this is the streamed oracle's
        ``freeze``: the vector clocks the stream computed, handed over,
        and no causal-past matrix until someone asks for bits.  Otherwise
        it is the batch build, rows and all, on whichever kernel the
        execution's size selects.  Every answer is the same either way.
        """
        if self.online_oracle is not None:
            return self.online_oracle.freeze(self.execution)
        return HappenedBeforeOracle(self.execution)

    def finalization_latencies(self, name: str) -> Dict[EventId, float]:
        """Virtual-time lag from event occurrence to a permanent timestamp.

        Only events finalized *during* the run appear; events completed by
        termination finalization have no in-run finalization time.
        """
        out: Dict[EventId, float] = {}
        for eid, t_final in self.finalization_times[name].items():
            out[eid] = t_final - self.event_times[eid]
        return out

    def fraction_finalized_during_run(self, name: str) -> float:
        total = self.execution.n_events
        if total == 0:
            return 1.0
        return len(self.finalization_times[name]) / total


class Simulation:
    """A deterministic discrete-event simulation of the paper's system model.

    Parameters
    ----------
    graph:
        Communication topology; sends are validated against it.
    seed:
        Seed for the run's private RNG — identical seeds replay identically.
    clocks:
        Algorithms observing the run, keyed by a display name.  They all see
        exactly the same execution, making comparisons apples-to-apples.
    delay_model:
        One-way delay distribution for application and control messages.
    control_transport:
        ``EAGER`` dedicated FIFO channels or ``PIGGYBACK`` on app messages.
    fifo_app_channels:
        Force per-channel FIFO delivery of application messages (the model
        default is non-FIFO, which the paper allows; some baselines such as
        :class:`~repro.clocks.vector_sk.SKVectorClock` require FIFO).
    app_loss_rate / control_loss_rate:
        Failure injection: each application/control message is independently
        dropped with this probability.  A dropped application message's
        send event still occurs (the paper's model permits messages that
        are never received); a dropped control message delays finalization
        until termination flushing (unless ``control_retry`` retransmits
        it).  Incompatible with FIFO-requiring baselines like SK (a lost
        diff is an unfillable gap) — rejected at construction.
    fault_model:
        Structured fault injection (:mod:`repro.faults.models`): bursty
        loss, duplication, partitions, crash/recovery.  Applied on top of
        the independent loss rates.  Crashed processes perform no events
        and deliveries to them are dropped; at each crash instant every
        attached clock is checkpointed
        (:meth:`~repro.clocks.base.ClockAlgorithm.checkpoint`) and the
        snapshots are returned in ``SimulationResult.crash_checkpoints``.
    control_retry:
        A :class:`~repro.sim.network.RetryPolicy` enabling the at-least-once
        control transport (EAGER only): positive acks, timeout
        retransmission with exponential backoff and bounded retries.
        ``None`` (default) keeps the fire-and-forget transport.  Either way
        the clock refuses the copies that arrive twice.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` the run records into
        (per-clock finalization-delay histograms, piggyback sizes,
        transport and fault counters); a fresh registry is created when
        omitted.  Either way it is returned as ``SimulationResult.metrics``.
    online_oracle:
        Stream every event into an
        :class:`~repro.core.incremental.IncrementalHBOracle` *during* the
        run (O(n) per event).  Online consumers — predicate and
        concurrent-update detectors — query its streamed clocks mid-run
        through workload hooks.  ``SimulationResult.hb_oracle()`` then
        freezes it: the streamed vector clocks handed to the batch API,
        the causal-past rows built only if asked for.
    """

    def __init__(
        self,
        graph: CommunicationGraph,
        seed: int = 0,
        clocks: Optional[Mapping[str, ClockAlgorithm]] = None,
        delay_model: Optional[DelayModel] = None,
        control_transport: ControlTransport = ControlTransport.EAGER,
        fifo_app_channels: bool = False,
        app_loss_rate: float = 0.0,
        control_loss_rate: float = 0.0,
        fault_model: Optional[FaultModel] = None,
        control_retry: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        online_oracle: bool = False,
    ) -> None:
        self._graph = graph
        self._seed = seed
        self._clock_map: Dict[str, ClockAlgorithm] = dict(clocks or {})
        for name, algo in self._clock_map.items():
            if algo.n_processes != graph.n_vertices:
                raise ValueError(
                    f"clock {name!r} built for {algo.n_processes} processes, "
                    f"graph has {graph.n_vertices}"
                )
        self._delay_model = delay_model or UniformDelay(0.5, 1.5)
        self._transport = control_transport
        self._fifo_app = fifo_app_channels
        if not 0.0 <= app_loss_rate < 1.0 or not 0.0 <= control_loss_rate < 1.0:
            raise ValueError("loss rates must be in [0, 1)")
        self._app_loss = app_loss_rate
        self._control_loss = control_loss_rate
        self._fault_model = fault_model
        if control_retry is not None and control_transport is not ControlTransport.EAGER:
            raise ValueError(
                "control_retry requires the EAGER control transport "
                "(piggybacked controls ride application messages and cannot "
                "be individually retransmitted)"
            )
        self._control_retry = control_retry
        self._metrics = metrics
        self._online_oracle = online_oracle
        self._oracle: Optional[IncrementalHBOracle] = None
        self._rng: Optional[random.Random] = None
        self._scheduler: Optional[EventScheduler] = None
        self._check_fifo_compatibility()
        self._ran = False

    def _check_fifo_compatibility(self) -> None:
        """Reject configurations that silently break FIFO-requiring clocks.

        Schemes with :attr:`~repro.clocks.base.ClockAlgorithm
        .requires_fifo_app` (e.g. Singhal–Kshemkalyani) need loss-free
        per-channel FIFO application delivery; combining them with non-FIFO
        channels or with anything that can drop or duplicate application
        messages used to be documented-only — now it fails fast.
        """
        app_hazard = self._app_loss > 0.0 or (
            self._fault_model is not None
            and self._fault_model.can_disrupt_app()
        )
        for name, algo in self._clock_map.items():
            if not algo.requires_fifo_app:
                continue
            if not self._fifo_app:
                raise ValueError(
                    f"clock {name!r} ({algo.name}) requires FIFO application "
                    f"channels; pass fifo_app_channels=True"
                )
            if app_hazard:
                raise ValueError(
                    f"clock {name!r} ({algo.name}) requires loss-free FIFO "
                    f"application delivery, but app_loss_rate/fault_model can "
                    f"drop or duplicate application messages (a lost diff is "
                    f"an unfillable gap)"
                )
            if self._control_loss > 0.0:
                warnings.warn(
                    f"clock {name!r} ({algo.name}) requires FIFO delivery; "
                    f"control_loss_rate > 0 does not affect it directly (it "
                    f"uses no control messages) but usually indicates a "
                    f"lossy-network configuration it cannot survive",
                    stacklevel=3,
                )

    # ------------------------------------------------------------------
    # SimHandle surface (used by workloads)
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CommunicationGraph:
        return self._graph

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            raise RuntimeError(_NOT_STARTED)
        return self._rng

    @property
    def now(self) -> float:
        if self._scheduler is None:
            raise RuntimeError(_NOT_STARTED)
        return self._scheduler.now

    @property
    def oracle(self) -> Optional[IncrementalHBOracle]:
        """The live streaming oracle (``online_oracle=True`` runs only).

        Workload hooks may query it at any point during the run; every
        answer about already-appended events is final.
        """
        return self._oracle

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* units of virtual time (once the
        run starts, the scheduler's ``after`` itself: one call per event)."""
        if self._scheduler is None:
            raise RuntimeError(_NOT_STARTED)
        self._scheduler.after(delay, fn, *args)

    def do_local(self, proc: ProcessId) -> Optional[Event]:
        """Perform a local event at *proc* now (``None`` if *proc* is down)."""
        now = self._scheduler.now
        fault_model = self._fault_model
        if fault_model is not None and not fault_model.process_up(proc, now):
            self._suppressed_events += 1
            return None
        ev = self._builder.local(proc)
        times = self._event_times
        times.ids.append(ev.eid)
        times.rows[proc].append(now)
        if self._oracle is not None:
            self._oracle.append_local(ev.eid)
        for host in self._clocks:
            host.local(proc)
        return ev

    def do_send(self, src: ProcessId, dst: ProcessId) -> Optional[Event]:
        """Send an application message from *src* to *dst* now.

        Returns ``None`` (and performs nothing) when *src* is crashed.
        """
        now = self._scheduler.now
        fault_model = self._fault_model
        if fault_model is not None and not fault_model.process_up(src, now):
            self._suppressed_events += 1
            return None
        msg_id = self._builder.send(src, dst)
        ev = self._builder.last_event(src)
        times = self._event_times
        times.ids.append(ev.eid)
        times.rows[src].append(now)
        if self._oracle is not None:
            self._oracle.append_send(ev.eid)
        # Decide the message's fate *before* touching pending piggybacked
        # controls: controls whose carrier is dropped must stay queued for
        # the next carrier, not vanish silently.
        dropped = self._app_loss > 0.0 and self._rng.random() < self._app_loss
        copies = 1
        if not dropped and fault_model is not None:
            fate = fault_model.message_fate(
                src, dst, now, self._rng, control=False
            )
            dropped = fate.drop
            copies = fate.copies
        piggybacking = self._transport is ControlTransport.PIGGYBACK
        piggyback = [] if piggybacking else self._no_piggyback
        for host in self._clocks:
            host.send(src, dst, msg_id)
            n_elems = host.clock.payload_elements(host.in_flight[msg_id])
            host.stats.app_payload_elements += n_elems
            host.piggy_elems[n_elems] = host.piggy_elems.get(n_elems, 0) + 1
            if not piggybacking:
                continue
            if dropped:
                self._retained_piggyback += len(host.pending.get((src, dst), ()))
                piggyback.append(None)
            else:
                piggyback.append(host.pending.pop((src, dst), None))
        if dropped:
            self._dropped_app += 1
            return ev
        # the first copy to reach a live destination is delivered; with no
        # fault model there is one copy and nothing to check
        deliver = self._deliver if fault_model is None else self._deliver_copy
        for _ in range(copies):
            self._network.transmit(
                src, dst, deliver, msg_id, dst, piggyback, fifo=self._fifo_app
            )
        return ev

    def _deliver_copy(self, msg_id: MessageId, dst: ProcessId, piggyback: _Riders) -> None:
        """One copy of an application message that the fault model may have
        duplicated arrives; the message itself says whether an earlier copy
        was delivered."""
        if self._builder.message(msg_id).delivered:
            self._dup_app_suppressed += 1
        elif not self._fault_model.process_up(dst, self._scheduler.now):
            # counted once, and uncounted if a later copy makes it
            self._crash_lost.add(msg_id)
        else:
            self._crash_lost.discard(msg_id)
            self._deliver(msg_id, dst, piggyback)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _deliver(self, msg_id: MessageId, dst: ProcessId, piggyback: _Riders) -> None:
        recv = self._builder.receive(dst, msg_id)
        src = recv.peer
        times = self._event_times
        times.ids.append(recv.eid)
        times.rows[dst].append(self._scheduler.now)
        if self._oracle is not None:
            self._oracle.append_receive(recv.eid, self._builder.message(msg_id).send_event)
        for host, riders in zip(self._clocks, piggyback):
            host.receive(dst, src, msg_id)
            if riders:
                # the controls src owed dst, riding src's message to dst
                stats = host.stats
                for ctl in riders:
                    stats.control_messages += 1
                    stats.control_elements += host.clock.payload_elements(ctl)
                    host.control(src, dst, ctl)
        if self._on_deliver is not None:
            self._on_deliver(self, self._builder.message(msg_id), recv)

    def _emit_control(
        self, host: _AttachedClock, src: ProcessId, dst: ProcessId, ctl: Any
    ) -> None:
        """Send the control *ctl* that *src*'s clock owes *dst*: every copy
        that arrives goes to the host."""
        if self._transport is ControlTransport.PIGGYBACK:
            host.pending.setdefault((src, dst), []).append(ctl)
            return
        host.stats.control_messages += 1
        host.stats.control_elements += host.clock.payload_elements(ctl)
        if host.link is not None:
            host.link.send(src, dst, host.control, src, dst, ctl)
        elif self._fault_model is None and self._control_loss == 0.0:
            # nothing can drop or duplicate the control, or crash its
            # destination: one unguarded copy on the FIFO control channel
            self._network.transmit(
                src, dst, host.control, src, dst, ctl, fifo=True
            )
        else:
            self._send_control_datagram(src, dst, host.control, src, dst, ctl)

    def _send_control_datagram(
        self, src: ProcessId, dst: ProcessId, deliver: Callable[..., None],
        *args: Any, kind: str = "data",
    ) -> None:
        """The unreliable control datagram service.

        Applies the independent control loss rate, the fault model, and
        destination liveness, then ships over the FIFO control channel.
        ``kind`` is ``"data"`` for control payloads and ``"ack"`` for
        reliable-transport acknowledgements; only lost data datagrams count
        into ``dropped_control_messages``.  Every copy that reaches a live
        destination runs ``deliver(*args)``.
        """
        lost = self._control_loss > 0.0 and self._rng.random() < self._control_loss
        fate = DELIVER
        if not lost and self._fault_model is not None:
            fate = self._fault_model.message_fate(
                src, dst, self._scheduler.now, self._rng, control=True
            )
        if lost or fate.drop:
            if kind == "data":
                self._dropped_control += 1
            return
        for _ in range(fate.copies):
            self._network.transmit(
                src, dst, self._guarded_datagram, dst, kind, deliver, args,
                fifo=True,
            )

    def _guarded_datagram(
        self, dst: ProcessId, kind: str, deliver: Callable[..., None], args: Tuple[Any, ...]
    ) -> None:
        """A control datagram copy arrives: run it unless *dst* is down."""
        fault_model = self._fault_model
        if fault_model is not None and not fault_model.process_up(
            dst, self._scheduler.now
        ):
            if kind == "data":
                self._dropped_control += 1
            return
        deliver(*args)

    # ------------------------------------------------------------------
    def run(
        self,
        workload: Workload,
        max_time: Optional[float] = None,
        max_steps: Optional[int] = None,
        finalize: bool = True,
    ) -> SimulationResult:
        """Run *workload* to completion and return the observed result.

        A :class:`Simulation` instance is single-use: rerunning requires a
        fresh instance (clock algorithms accumulate state).
        """
        if self._ran:
            raise RuntimeError("Simulation instances are single-use")
        self._ran = True

        self._rng = random.Random(self._seed)
        self._scheduler = EventScheduler()
        self.schedule = self._scheduler.after  # type: ignore[method-assign]
        self._network = Network(self._scheduler, self._delay_model, self._rng)
        self._builder = ExecutionBuilder(
            self._graph.n_vertices, graph=self._graph
        )
        retry = self._control_retry
        n = self._graph.n_vertices
        self._clocks: List[_AttachedClock] = [
            _AttachedClock(self, name, algo, None if retry is None else ReliableLink(
                self._scheduler, retry, self._send_control_datagram
            ))
            for name, algo in self._clock_map.items()
        ]
        #: rides every application message outside PIGGYBACK; shared, not mutated
        self._no_piggyback: List[Optional[List[Any]]] = [None] * len(
            self._clocks
        )
        self._event_times = _TimeTable([[] for _ in range(n)])
        self._reg = self._metrics if self._metrics is not None else MetricsRegistry()
        if self._online_oracle:
            self._oracle = IncrementalHBOracle(
                self._graph.n_vertices, registry=self._reg
            )
        self._dropped_app = 0
        self._dropped_control = 0
        self._dup_app_suppressed = 0
        #: messages whose every copy so far found the destination crashed
        self._crash_lost: Set[MessageId] = set()
        self._suppressed_events = 0
        self._retained_piggyback = 0
        self._crash_checkpoints: List[Tuple[float, Dict[str, Any]]] = []
        #: the workload's delivery hook; None when it keeps the base no-op
        hook = workload.on_deliver
        self._on_deliver = (
            None if getattr(hook, "__func__", None) is Workload.on_deliver else hook
        )

        if self._fault_model is not None:
            self._fault_model.reset(self._rng)
            for t, proc, up in self._fault_model.liveness_transitions():
                if not up:
                    self._scheduler.at(t, self._checkpoint_clocks)

        workload.setup(self)
        self._scheduler.run(max_time=max_time, max_steps=max_steps)
        duration = self._scheduler.now
        execution = self._builder.freeze()

        assignments: Dict[str, TimestampAssignment] = {}
        final_times: Dict[str, _TimeTable] = {}
        for host in self._clocks:
            st = host.stats
            st.control_duplicates_suppressed = host.duplicates
            if host.link is not None:
                sent = host.link.stats
                st.control_retransmissions += sent.retransmissions
                st.control_acks += sent.acks_received
                st.control_abandoned += sent.abandoned
            final_times[host.name] = table = self._final_times(host)
            assignments[host.name] = host.finish(execution, table.ids, finalize)

        self._record_run_metrics(execution, assignments, final_times)
        return SimulationResult(
            execution=execution,
            graph=self._graph,
            duration=duration,
            event_times=self._event_times,
            assignments=assignments,
            finalization_times=final_times,
            stats={host.name: host.stats for host in self._clocks},
            app_messages=len(execution.messages),
            dropped_app_messages=self._dropped_app,
            dropped_control_messages=self._dropped_control,
            duplicate_app_deliveries=self._dup_app_suppressed,
            crash_dropped_app_messages=len(self._crash_lost),
            suppressed_events=self._suppressed_events,
            piggyback_controls_retained=self._retained_piggyback,
            crash_checkpoints=self._crash_checkpoints,
            metrics=self._reg,
            online_oracle=self._oracle,
        )

    def _final_times(self, host: _AttachedClock) -> _TimeTable:
        """When each event *host*'s clock finalized during the run became
        permanent, in the order they did (one finalized again keeps its
        place and takes the later time)."""
        table = _TimeTable([[None] * len(row) for row in self._event_times.rows])
        ids = self._event_times.ids
        for seq, now in zip(host.finalized, host.final_times):
            eid = ids[seq]  # the run's own id: none is built
            row = table.rows[eid.proc]
            if row[eid.index - 1] is None:
                table.ids.append(eid)
            row[eid.index - 1] = now
        return table

    def _record_run_metrics(
        self,
        execution: Execution,
        assignments: Dict[str, TimestampAssignment],
        final_times: Dict[str, _TimeTable],
    ) -> None:
        """Turn the run's tallies into the metrics registry's instruments.

        The run itself only counted: the counters below repeat the
        :class:`SimulationResult` fields under metric names, and every
        histogram is built here, once.  Integer observations arrive as
        ``{value: count}`` tallies (:meth:`Histogram.observe_n` makes the
        fold exact); the one float histogram, the virtual-time finalization
        delay, is replayed value by value in the order the finalizations
        happened, so its ``sum`` rounds exactly as a live observer's would;
        only the delays that are exactly ``0.0`` (every online scheme's,
        every cover event's) are counted and folded in: ``x + 0.0 == x``.
        The per-timestamp histograms add the paper's size metrics: the
        assignment's tallies of element counts and Theorem 4.3 bits.
        """
        reg = self._reg
        for key, value in (
            ("events_total", execution.n_events),
            ("app_messages_sent", len(execution.messages) + self._dropped_app),
            ("app_messages_dropped", self._dropped_app),
            ("app_messages_crash_dropped", len(self._crash_lost)),
            ("app_duplicates_suppressed", self._dup_app_suppressed),
            ("control_messages_dropped", self._dropped_control),
            ("suppressed_events", self._suppressed_events),
            ("piggyback_controls_retained", self._retained_piggyback),
            ("crash_checkpoints", len(self._crash_checkpoints)),
        ):
            reg.counter(f"sim.{key}").inc(value)
        reg.gauge("sim.duration_vtime").set(self._scheduler.now)
        if self._fault_model is not None:
            reg.counter("faults.partition_epochs").inc(
                len(self._fault_model.partition_epochs())
            )
            transitions = self._fault_model.liveness_transitions()
            reg.counter("faults.crash_outages").inc(
                sum(not up for _t, _p, up in transitions)
            )
        event_rows = self._event_times.rows
        for host in self._clocks:
            name, stats = host.name, host.stats
            for field_name in (
                "control_messages",
                "control_elements",
                "control_retransmissions",
                "control_duplicates_suppressed",
                "control_acks",
                "control_abandoned",
            ):
                reg.counter(f"clock.{field_name}", clock=name).inc(
                    getattr(stats, field_name)
                )
            hist = partial(reg.histogram, clock=name)
            _fold(hist("clock.piggyback_elements"), host.piggy_elems)
            # 8-byte integers per scalar element — the same accounting the
            # Theorem 4.3 bit model coarsens, but per message
            piggy_bytes = hist("clock.piggyback_bytes", buckets=BYTE_BUCKETS)
            _fold(piggy_bytes, host.piggy_elems, scale=8)
            _fold(hist("clock.finalization_delay_events"), host.delays)
            delay_vtime = hist("clock.finalization_delay_vtime", buckets=VTIME_BUCKETS)
            final_rows = final_times[name].rows
            on_occurrence = 0
            for eid in final_times[name].ids:
                p, k = eid.proc, eid.index - 1
                delay = final_rows[p][k] - event_rows[p][k]
                if delay == 0.0:
                    on_occurrence += 1
                else:
                    delay_vtime.observe(delay)
            delay_vtime.observe_n(0.0, on_occurrence)
            sizes = assignments[name]
            _fold(hist("clock.timestamp_elements"), sizes.element_tally)
            _fold(hist("clock.timestamp_bits"), sizes.bit_tally)

    def _checkpoint_clocks(self) -> None:
        """Checkpoint every attached clock at a crash instant.

        Models the durable snapshot a crash-recovering timestamping service
        restores from; the chaos harness asserts that timestamps finalized
        before the crash read back identically from the snapshot
        (permanence survives crash-recovery).
        """
        snapshot = {host.name: host.clock.checkpoint() for host in self._clocks}
        self._crash_checkpoints.append((self._scheduler.now, snapshot))
