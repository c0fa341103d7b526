"""Channel delay models and the simulated network.

The paper's system model places no bound on message delays and does not
require FIFO application channels; the *control* channels used by the inline
algorithms, however, must be FIFO (Figure 1).  The :class:`Network` honours
both: application sends are delivered after a sampled delay with no ordering
guarantee, while FIFO channels clamp each delivery to occur no earlier than
the previous delivery on the same directed channel.

Delay models are pluggable; the adversarial constructions in
:mod:`repro.lowerbounds` use :class:`PerChannelDelay` to make one process's
channels arbitrarily slow (the "slow channel" trick of Lemmas 2.3/2.4).
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.events import ProcessId
from repro.sim.scheduler import EventScheduler, TimerHandle


class DelayModel(abc.ABC):
    """Samples a one-way delay for a message on a directed channel."""

    @abc.abstractmethod
    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        """A strictly positive delay for one message from *src* to *dst*."""


class ConstantDelay(DelayModel):
    """Every message takes exactly *delay* time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if not 0 < delay < math.inf:  # NaN too
            raise ValueError("delay must be positive and finite")
        self.delay = delay

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        return self.delay


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 < low <= high < math.inf:  # NaN too
            raise ValueError("need 0 < low <= high < inf")
        self.low = low
        self.high = high

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        # rng.uniform(low, high), spelled out: the same draw and the same
        # float, one Python call fewer per message
        return self.low + (self.high - self.low) * rng.random()


class PerChannelDelay(DelayModel):
    """Channel-specific overrides on top of a default model.

    Overrides are keyed by directed pair.  Used by the lower-bound
    adversaries to slow down every channel of a chosen victim process.
    """

    def __init__(
        self,
        default: DelayModel,
        overrides: Optional[Dict[Tuple[ProcessId, ProcessId], DelayModel]] = None,
    ) -> None:
        self.default = default
        self.overrides = dict(overrides or {})

    def set_channel(
        self, src: ProcessId, dst: ProcessId, model: DelayModel
    ) -> None:
        self.overrides[(src, dst)] = model

    def slow_down_process(self, victim: ProcessId, n: int, delay: float) -> None:
        """Make every channel to/from *victim* take *delay* time units."""
        slow = ConstantDelay(delay)
        for other in range(n):
            if other != victim:
                self.overrides[(victim, other)] = slow
                self.overrides[(other, victim)] = slow

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        model = self.overrides.get((src, dst), self.default)
        return model.sample(src, dst, rng)


class Network:
    """Delivers payloads between processes over the scheduler.

    ``transmit`` samples a delay and schedules the delivery callback with
    its arguments.  FIFO channels keep a per-directed-pair high-water mark
    and never deliver earlier than a previously scheduled delivery on the
    same channel.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        delay_model: DelayModel,
        rng: random.Random,
    ) -> None:
        self._scheduler = scheduler
        self._delay_model = delay_model
        self._rng = rng
        self._fifo_watermark: Dict[Tuple[ProcessId, ProcessId], float] = {}

    def transmit(
        self,
        src: ProcessId,
        dst: ProcessId,
        deliver: Callable[..., None],
        *args: Any,
        fifo: bool = False,
    ) -> float:
        """Send: run ``deliver(*args)`` at *dst* after a sampled delay;
        returns the scheduled delivery time."""
        delay = self._delay_model.sample(src, dst, self._rng)
        if not 0 < delay < math.inf:  # NaN too
            raise ValueError("delay models must produce positive, finite delays")
        when = self._scheduler.now + delay
        if fifo:
            key = (src, dst)
            floor = self._fifo_watermark.get(key, 0.0)
            # <= so a delivery can never tie the previous one on the same
            # channel: equal-time deliveries would make FIFO order depend on
            # scheduler insertion order rather than the channel discipline
            if when <= floor:
                when = floor + 1e-9
            self._fifo_watermark[key] = when
        self._scheduler.at(when, deliver, *args)
        return when


# ----------------------------------------------------------------------
# reliable control transport
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission parameters for :class:`ReliableLink`.

    The first retransmission fires *timeout* after the original send; each
    subsequent one waits ``timeout * backoff**attempt``.  After
    *max_retries* retransmissions the message is abandoned (termination
    finalization still recovers the information offline, as always).

    The default timeout comfortably exceeds the worst-case control round
    trip under the simulator's default delay model (``UniformDelay(0.5,
    1.5)`` each way, i.e. RTT ≤ 3.0) — a timeout below the RTT causes
    spurious retransmissions of messages whose ack is still in flight.
    """

    timeout: float = 4.0
    backoff: float = 1.5
    max_retries: int = 4

    def __post_init__(self) -> None:
        # written so that NaN fails too: it compares false both ways
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be positive and finite")
        if not 1.0 <= self.backoff < math.inf:
            raise ValueError("backoff must be >= 1 and finite")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def retry_delay(self, attempt: int) -> float:
        """Time to wait after transmission number *attempt* (0-based)."""
        return self.timeout * self.backoff**attempt


@dataclass
class LinkStats:
    """Transport-level accounting of one :class:`ReliableLink`."""

    retransmissions: int = 0
    acks_received: int = 0
    abandoned: int = 0


class _Pending:
    __slots__ = ("deliver", "args", "acked", "timer")

    def __init__(self, deliver: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self.deliver = deliver
        self.args = args
        self.acked = False
        self.timer: Optional[TimerHandle] = None


class ReliableLink:
    """At-least-once control delivery over an unreliable datagram service.

    The classic positive-acknowledgement protocol: the receiver runs every
    copy that arrives and acknowledges each one; the sender retransmits on
    timeout with exponential backoff until an acknowledgement arrives,
    giving up after :attr:`RetryPolicy.max_retries` retransmissions.  The
    link keeps no sequence numbers and no record of what it delivered:
    refusing a second copy is the clock's job
    (:meth:`~repro.clocks.base.InlineClock.on_control` orders each control
    channel by the control's own ``seq`` and raises
    :class:`~repro.clocks.base.DuplicateControl`).

    The link owns no network model of its own — the host supplies
    ``send_datagram(src, dst, fn, *args, kind=...)``, an *unreliable*
    service that may drop, delay, or duplicate each call ("data" payload
    copies and "ack" confirmations alike) and runs ``fn(*args)`` for every
    copy that arrives.  That keeps every loss decision — rates, fault
    models, crashed destinations — in one place, the simulation.  The
    retransmission timer is the simulator's one cancellable callback
    (:meth:`~repro.sim.scheduler.EventScheduler.timer`).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        policy: RetryPolicy,
        send_datagram: Callable[..., None],
    ) -> None:
        self._scheduler = scheduler
        self._policy = policy
        self._send_datagram = send_datagram
        self.stats = LinkStats()

    def send(
        self,
        src: ProcessId,
        dst: ProcessId,
        deliver: Callable[..., None],
        *args: Any,
    ) -> None:
        """Run ``deliver(*args)`` at *dst* at least once, retrying until
        acknowledged."""
        self._transmit(src, dst, _Pending(deliver, args), 0)

    # ------------------------------------------------------------------
    def _transmit(
        self, src: ProcessId, dst: ProcessId, entry: _Pending, attempt: int
    ) -> None:
        if entry.acked:
            return
        if attempt > 0:
            self.stats.retransmissions += 1
        self._send_datagram(src, dst, self._on_data, src, dst, entry, kind="data")
        delay = self._policy.retry_delay(attempt)
        if attempt < self._policy.max_retries:
            entry.timer = self._scheduler.timer(
                delay, self._transmit, src, dst, entry, attempt + 1
            )
        else:
            entry.timer = self._scheduler.timer(delay, self._give_up, entry)

    def _on_data(self, src: ProcessId, dst: ProcessId, entry: _Pending) -> None:
        # a copy arrived at dst: run it, and acknowledge every copy, since
        # the ack for an earlier one may be lost
        entry.deliver(*entry.args)
        self._send_datagram(dst, src, self._on_ack, entry, kind="ack")

    def _on_ack(self, entry: _Pending) -> None:
        if entry.acked:
            return
        entry.acked = True
        self.stats.acks_received += 1
        if entry.timer is not None:
            entry.timer.cancel()

    def _give_up(self, entry: _Pending) -> None:
        if not entry.acked:
            self.stats.abandoned += 1
