"""Singhal–Kshemkalyani differential vector clocks (related work, §5).

Singhal & Kshemkalyani (1992) reduce the *transmission* cost of vector
clocks: on each channel, a sender piggybacks only the entries that changed
since its previous message on that same channel, as ``(index, value)``
pairs.  Timestamps themselves are still full ``n``-vectors — the technique
compresses messages, not storage — and it requires FIFO channels to be
safe, since a reordered older diff would otherwise be applied over a newer
one.

The FIFO requirement is *fundamental*, not an implementation convenience: a
diff is relative to the previous message on the channel, and the receive
event's timestamp must already dominate the send's — information a not-yet-
arrived earlier diff may carry cannot be resequenced in later.  This
implementation therefore stamps each diff with a per-channel sequence
number and **rejects out-of-order delivery with a clear error** (contrast
with the paper's inline algorithms, whose control messages are pure
metadata and *can* be resequenced).  Use FIFO channels
(``random_execution(..., fifo=True)`` or ``Simulation(...,
fifo_app_channels=True)``) when attaching this clock.

The benchmarks (E11) compare its per-message payload against the inline
schemes: SK compresses well under repeated pairwise traffic but degrades
toward full vectors under scattered communication, while the inline payload
is a fixed ``|VC| + 2`` elements.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.clocks.base import ControlMessage
from repro.clocks.vector import VectorClock
from repro.core.events import ProcessId


class SKVectorClock(VectorClock):
    """Vector clock with Singhal–Kshemkalyani differential transmission.

    Produces exactly the same :class:`VectorTimestamp` values as
    :class:`~repro.clocks.vector.VectorClock`; only the piggybacked payload
    differs: ``(seq, ((index, value), ...))`` with one pair per entry that
    changed since the previous message on the same directed channel.
    """

    name = "vector-sk"
    characterizes_causality = True
    requires_fifo_app = True

    def __init__(self, n_processes: int) -> None:
        super().__init__(n_processes)
        # per directed channel: last vector sent, outgoing seq counter
        self._last_sent: Dict[Tuple[ProcessId, ProcessId], List[int]] = {}
        self._seq_out: Dict[Tuple[ProcessId, ProcessId], int] = {}
        # receiver-side in-order check and reconstruction per channel
        self._seq_in: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self._channel_view: Dict[Tuple[ProcessId, ProcessId], List[int]] = {}
        self._total_diff_entries = 0
        self._messages_sent = 0

    # ------------------------------------------------------------------
    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        clock = super().record_send(p, k, peer)  # what a plain clock sends
        key = (p, peer)
        last = self._last_sent.get(key)
        if last is None:
            diff = tuple((i, v) for i, v in enumerate(clock) if v > 0)
        else:
            diff = tuple(
                (i, v) for i, v in enumerate(clock) if v != last[i]
            )
        self._last_sent[key] = list(clock)
        seq = self._seq_out.get(key, 0)
        self._seq_out[key] = seq + 1
        self._total_diff_entries += len(diff)
        self._messages_sent += 1
        return (seq, diff)

    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> List[ControlMessage]:
        key = (peer, p)
        seq, diff = payload
        self._expect(p, k)  # before the channel state below moves
        expected = self._seq_in.get(key, 0)
        if seq != expected:
            raise ValueError(
                f"SK vector clocks require FIFO channels: got diff #{seq} "
                f"on channel p{peer}->p{p}, expected #{expected}"
            )
        self._seq_in[key] = expected + 1
        view = self._channel_view.setdefault(key, [0] * self._n)
        for i, v in diff:
            view[i] = v  # in-order: overwrite reconstructs the sender vector
        # the reconstructed channel view is what a plain clock receives
        return super().record_receive(p, k, peer, view)

    # ------------------------------------------------------------------
    def payload_elements(self, payload: Any) -> int:
        """Cost model: 1 (seq) + 2 per transmitted (index, value) pair."""
        seq, diff = payload
        return 1 + 2 * len(diff)

    @property
    def mean_diff_entries(self) -> float:
        """Average number of (index, value) pairs per message so far."""
        if self._messages_sent == 0:
            return 0.0
        return self._total_diff_entries / self._messages_sent
