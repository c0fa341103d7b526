"""Fault interposition for live connections.

The simulator consults a :class:`repro.faults.models.FaultModel` once per
injected message; :class:`ChaosInterposer` gives live TCP endpoints the same
seam.  Every frame about to be written — requests, responses, replication,
control traffic — asks the interposer for a fate first:

- ``0`` copies: the frame is silently not written (a network drop).  The
  transport's retransmission machinery is what recovers, exactly as it
  would from real loss.
- ``1`` copy: normal delivery.
- ``k > 1`` copies: the frame is written *k* times; receiver-side dedup
  (request ids at the RPC layer, message/control ids at the clock seam)
  must absorb the duplicates.

Partitions and crash windows come along for free: a
:class:`~repro.faults.models.PartitionFault` drops frames crossing the cut,
and a :class:`~repro.faults.models.CrashSchedule` every frame to or from a
process it holds down.

Determinism: the fate sequence is driven by a private ``random.Random``
seeded at construction, so a given (seed, channel, frame-ordinal) schedule
of drops/duplications is reproducible run to run.  Wall-clock *timing* of a
live run is inherently nondeterministic; what the seed pins down is the
loss/duplication pattern each channel experiences, which is the part the
robustness assertions depend on.  On a
:class:`~repro.net.virtual.VirtualLoop` the timing is virtual too, and the
whole run repeats exactly.
"""

from __future__ import annotations

import asyncio
import random
from typing import Optional

from repro.faults.models import FaultModel


class ChaosInterposer:
    """Adapts a :class:`FaultModel` to live framed connections.

    ``now()`` reports seconds since construction on the running event loop's
    clock, so time-windowed models
    (:class:`~repro.faults.models.PartitionFault`) use the loop's seconds as
    their time axis: real seconds on asyncio's default loop, virtual ones on
    a :class:`~repro.net.virtual.VirtualLoop`.  Build it inside that loop.
    """

    def __init__(self, model: Optional[FaultModel] = None, seed: int = 0) -> None:
        self._model = model
        self._rng = random.Random(seed)
        self._time = asyncio.get_running_loop().time
        self._t0 = self._time()
        self._enabled = True
        if model is not None:
            model.reset(self._rng)

    # ------------------------------------------------------------------
    def now(self) -> float:
        """The fault schedule's current instant (seconds since construction)."""
        return self._time() - self._t0

    def enable(self, on: bool = True) -> None:
        """Master switch — loadgen drains with faults off after the run."""
        self._enabled = on

    # ------------------------------------------------------------------
    def frame_copies(self, src: int, dst: int) -> int:
        """How many copies of the next ``src -> dst`` frame to write.

        ``0`` means drop.  A frame to or from a process that the model holds
        down is dropped too — a crashed endpoint neither sends nor receives.
        """
        if self._model is None or not self._enabled:
            return 1
        now = self.now()
        if not (
            self._model.process_up(src, now) and self._model.process_up(dst, now)
        ):
            return 0
        fate = self._model.message_fate(src, dst, now, self._rng)
        if fate.drop:
            return 0
        return fate.copies

    def describe(self) -> str:
        if self._model is None:
            return "no faults"
        return self._model.describe()
