"""Structured fault models for the simulator.

The independent per-message loss rates of :class:`repro.sim.runner.Simulation`
(``app_loss_rate`` / ``control_loss_rate``) model a memoryless channel.  Real
networks fail in structured ways: losses come in *bursts*, links duplicate
packets, partitions cut whole groups apart and later heal, and processes
crash and recover.  This module provides pluggable models for all of these;
the simulation consults the model once per message (and per liveness query)
and otherwise stays unchanged.

A :class:`FaultModel` answers three questions:

- :meth:`FaultModel.message_fate` — given a message about to be injected on
  a directed channel *now*, should it be dropped, delivered once, or
  delivered in multiple copies?
- :meth:`FaultModel.process_up` — is a process alive at a given instant?
  The host suppresses events at down processes and drops deliveries to them.
- :meth:`FaultModel.liveness_transitions` — the crash/recovery schedule, so
  the host can hook actions (clock-state checkpoints) to crash instants.

Models compose with :class:`CompositeFault`: a message is dropped if any
component drops it, duplicated to the maximum requested copy count, and a
process is up only if every component agrees.

Determinism: models draw randomness exclusively from the ``rng`` handed in
by the simulation, so a fixed simulation seed replays the identical faulty
run.  :meth:`FaultModel.reset` is called once at the start of each run and
must reinitialize any per-run state (e.g. Gilbert–Elliott channel states),
making one model instance reusable across runs.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.events import ProcessId

#: recovery time for a crash-stop outage (the process never comes back)
NEVER = math.inf

_SCOPES = ("app", "control", "both")


@dataclass(frozen=True)
class MessageFate:
    """What the network does to one injected message.

    ``drop`` wins over ``copies``; ``copies`` > 1 means the message (or
    datagram) arrives that many times, each copy with an independently
    sampled delay.
    """

    drop: bool = False
    copies: int = 1

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise ValueError("copies must be >= 1")


#: the common case: deliver exactly once
DELIVER = MessageFate()
#: the message disappears
DROP = MessageFate(drop=True)


class FaultModel(abc.ABC):
    """Base class for structured fault injection.

    The default implementations are all benign (deliver everything, every
    process up, no transitions); concrete models override the parts they
    affect.  ``scope`` — accepted by the loss and duplication models —
    restricts a model to application messages (``"app"``), control
    datagrams (``"control"``), or ``"both"``.
    """

    def reset(self, rng: random.Random) -> None:
        """Reinitialize per-run state; called once when a simulation starts."""

    def message_fate(
        self,
        src: ProcessId,
        dst: ProcessId,
        now: float,
        rng: random.Random,
        control: bool = False,
    ) -> MessageFate:
        """Decide drop/duplication for one message injected on ``src -> dst``."""
        return DELIVER

    def process_up(self, proc: ProcessId, now: float) -> bool:
        """Whether *proc* is alive at virtual time *now*."""
        return True

    def liveness_transitions(self) -> List[Tuple[float, ProcessId, bool]]:
        """Sorted ``(time, proc, up)`` crash/recovery transitions."""
        return []

    def partition_epochs(self) -> List[Tuple[float, float]]:
        """Sorted ``(start, heal)`` windows during which the model cuts the
        network into groups.  Hosts record these as first-class metrics
        (``faults.partition_epochs``) so a run's trace shows when the
        topology was split without re-deriving it from drop counts."""
        return []

    def can_disrupt_app(self) -> bool:
        """Whether the model may drop, duplicate, or suppress application
        messages (used to reject FIFO-requiring clocks at construction)."""
        return True

    def describe(self) -> str:
        """One-line human-readable summary."""
        return type(self).__name__


def _check_scope(scope: str) -> str:
    if scope not in _SCOPES:
        raise ValueError(f"scope must be one of {_SCOPES}, got {scope!r}")
    return scope


class GilbertElliottLoss(FaultModel):
    """Bursty loss: a two-state Markov channel (Gilbert–Elliott).

    Every directed channel is independently in a *good* or *burst* state;
    the state advances once per message, and the message is lost with the
    state's loss probability.  The stationary mean loss rate is

        ``pi_burst * loss_burst``

    (the good state loses nothing) with
    ``pi_burst = p_enter / (p_enter + p_exit)`` — see
    :meth:`mean_loss_rate`.  Unlike the independent ``*_loss_rate`` knobs,
    consecutive messages on a channel fail *together*, which is exactly the
    regime where single-shot control messages stall finalization and a
    retransmitting transport earns its keep.
    """

    def __init__(
        self,
        p_enter_burst: float = 0.1,
        p_exit_burst: float = 0.3,
        loss_burst: float = 1.0,
        scope: str = "both",
    ) -> None:
        for name, p in (
            ("p_enter_burst", p_enter_burst),
            ("p_exit_burst", p_exit_burst),
            ("loss_burst", loss_burst),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if p_enter_burst + p_exit_burst == 0.0:
            raise ValueError("p_enter_burst and p_exit_burst cannot both be 0")
        self.p_enter_burst = p_enter_burst
        self.p_exit_burst = p_exit_burst
        self.loss_burst = loss_burst
        self.scope = _check_scope(scope)
        self._in_burst: Dict[Tuple[ProcessId, ProcessId, bool], bool] = {}

    def mean_loss_rate(self) -> float:
        """Stationary loss probability of the channel."""
        pi_burst = self.p_enter_burst / (self.p_enter_burst + self.p_exit_burst)
        return pi_burst * self.loss_burst

    def reset(self, rng: random.Random) -> None:
        self._in_burst = {}

    def message_fate(
        self,
        src: ProcessId,
        dst: ProcessId,
        now: float,
        rng: random.Random,
        control: bool = False,
    ) -> MessageFate:
        if self.scope == "app" and control:
            return DELIVER
        if self.scope == "control" and not control:
            return DELIVER
        key = (src, dst, control)
        burst = self._in_burst.get(key, False)
        if burst:
            if rng.random() < self.p_exit_burst:
                burst = False
        else:
            if rng.random() < self.p_enter_burst:
                burst = True
        self._in_burst[key] = burst
        if burst and self.loss_burst > 0.0 and rng.random() < self.loss_burst:
            return DROP
        return DELIVER

    def can_disrupt_app(self) -> bool:
        return self.scope != "control"

    def describe(self) -> str:
        return (
            f"GilbertElliott(mean_loss={self.mean_loss_rate():.0%}, "
            f"scope={self.scope})"
        )


class DuplicationFault(FaultModel):
    """Each message is independently duplicated with probability *rate*.

    Duplicates test exactly-once machinery: the simulator suppresses extra
    application-message copies at the receiver (one receive event per
    message, as the execution model requires) and hands every control copy
    to the clock, which refuses a second copy by the control's own
    sequence number — both are counted, never silently discarded.
    """

    def __init__(self, rate: float = 0.1, copies: int = 2, scope: str = "both") -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be a probability")
        if copies < 2:
            raise ValueError("copies must be >= 2 (1 means no duplication)")
        self.rate = rate
        self.copies = copies
        self.scope = _check_scope(scope)

    def message_fate(
        self,
        src: ProcessId,
        dst: ProcessId,
        now: float,
        rng: random.Random,
        control: bool = False,
    ) -> MessageFate:
        if self.scope == "app" and control:
            return DELIVER
        if self.scope == "control" and not control:
            return DELIVER
        if rng.random() < self.rate:
            return MessageFate(copies=self.copies)
        return DELIVER

    def can_disrupt_app(self) -> bool:
        return self.scope != "control"

    def describe(self) -> str:
        return f"Duplication(rate={self.rate:.0%}, copies={self.copies})"


class PartitionFault(FaultModel):
    """A network partition that heals.

    During ``[start, start + duration)`` every message injected across a
    group boundary, application or control, is dropped; messages within a
    group, and everything after the heal instant, pass through.  Processes not listed in any group are
    singleton groups of their own.  The cut applies at injection time:
    messages already in flight when the partition begins still arrive (they
    are past the failed links in this model).
    """

    def __init__(
        self,
        groups: Sequence[Iterable[ProcessId]],
        start: float,
        duration: float,
    ) -> None:
        if start < 0 or duration <= 0:
            raise ValueError("need start >= 0 and duration > 0")
        self.start = start
        self.duration = duration
        self._group_of: Dict[ProcessId, int] = {}
        for gi, group in enumerate(groups):
            for p in group:
                if p in self._group_of:
                    raise ValueError(f"process p{p} appears in two groups")
                self._group_of[p] = gi

    @property
    def heals_at(self) -> float:
        return self.start + self.duration

    def _group(self, p: ProcessId) -> Tuple[int, ...]:
        gi = self._group_of.get(p)
        # singleton group keyed by the process itself when unlisted
        return (gi,) if gi is not None else (-1, p)

    def message_fate(
        self,
        src: ProcessId,
        dst: ProcessId,
        now: float,
        rng: random.Random,
        control: bool = False,
    ) -> MessageFate:
        if self.start <= now < self.heals_at and self._group(src) != self._group(dst):
            return DROP
        return DELIVER

    def partition_epochs(self) -> List[Tuple[float, float]]:
        return [(self.start, self.heals_at)]

    def describe(self) -> str:
        return (
            f"Partition({len(set(self._group_of.values()))} groups, "
            f"t=[{self.start}, {self.heals_at}))"
        )


class CrashSchedule(FaultModel):
    """Crash-stop and crash-recovery outages from an explicit schedule.

    ``outages`` maps a process to its down intervals ``(down_at, up_at)``;
    ``up_at = NEVER`` (``math.inf``) is a crash-stop.  While down, a process
    performs no events (the host suppresses its workload actions) and every
    delivery addressed to it is dropped — including in-flight messages sent
    before the crash, which is what distinguishes a crash from mere silence.
    On recovery the process resumes with its clock state intact; the host
    additionally snapshots every attached clock via
    :meth:`repro.clocks.base.ClockAlgorithm.checkpoint` at each crash
    instant, modelling the durable state a recovering service restores.
    """

    def __init__(
        self,
        outages: Mapping[ProcessId, Sequence[Tuple[float, float]]],
    ) -> None:
        self._outages: Dict[ProcessId, List[Tuple[float, float]]] = {}
        for proc, spans in outages.items():
            cleaned = []
            for down_at, up_at in spans:
                if down_at < 0 or up_at <= down_at:
                    raise ValueError(
                        f"invalid outage ({down_at}, {up_at}) for p{proc}"
                    )
                cleaned.append((down_at, up_at))
            cleaned.sort()
            for (_, a_up), (b_down, _) in zip(cleaned, cleaned[1:]):
                if b_down < a_up:
                    raise ValueError(f"overlapping outages for p{proc}")
            self._outages[proc] = cleaned

    def process_up(self, proc: ProcessId, now: float) -> bool:
        for down_at, up_at in self._outages.get(proc, ()):  # few spans: linear
            if down_at <= now < up_at:
                return False
        return True

    def liveness_transitions(self) -> List[Tuple[float, ProcessId, bool]]:
        out: List[Tuple[float, ProcessId, bool]] = []
        for proc, spans in self._outages.items():
            for down_at, up_at in spans:
                out.append((down_at, proc, False))
                if up_at != NEVER:
                    out.append((up_at, proc, True))
        out.sort()
        return out

    def can_disrupt_app(self) -> bool:
        return True

    def describe(self) -> str:
        total = sum(len(s) for s in self._outages.values())
        return f"CrashSchedule({total} outage(s), {len(self._outages)} proc(s))"


class CompositeFault(FaultModel):
    """Combine several fault models into one.

    Drop wins over delivery, copy counts take the maximum, liveness is the
    conjunction, and transitions are merged in time order.
    """

    def __init__(self, models: Sequence[FaultModel]) -> None:
        if not models:
            raise ValueError("need at least one model")
        self.models = list(models)

    def reset(self, rng: random.Random) -> None:
        for m in self.models:
            m.reset(rng)

    def message_fate(
        self,
        src: ProcessId,
        dst: ProcessId,
        now: float,
        rng: random.Random,
        control: bool = False,
    ) -> MessageFate:
        drop = False
        copies = 1
        for m in self.models:
            fate = m.message_fate(src, dst, now, rng, control)
            drop = drop or fate.drop
            copies = max(copies, fate.copies)
        if drop:
            return DROP
        return MessageFate(copies=copies) if copies > 1 else DELIVER

    def process_up(self, proc: ProcessId, now: float) -> bool:
        return all(m.process_up(proc, now) for m in self.models)

    def liveness_transitions(self) -> List[Tuple[float, ProcessId, bool]]:
        out: List[Tuple[float, ProcessId, bool]] = []
        for m in self.models:
            out.extend(m.liveness_transitions())
        out.sort()
        return out

    def partition_epochs(self) -> List[Tuple[float, float]]:
        out: List[Tuple[float, float]] = []
        for m in self.models:
            out.extend(m.partition_epochs())
        out.sort()
        return out

    def can_disrupt_app(self) -> bool:
        return any(m.can_disrupt_app() for m in self.models)

    def describe(self) -> str:
        return " + ".join(m.describe() for m in self.models)
