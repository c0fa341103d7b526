"""Finalization-latency statistics (experiment E8).

Inline timestamps trade size for a delay before each timestamp becomes
permanent.  The paper argues the delay is one round trip with the adjacent
cover processes, so in a steadily communicating system it is small and most
events are finalized at any given moment.  These helpers summarize the
latencies a :class:`~repro.sim.runner.SimulationResult` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.events import EventId
from repro.obs.metrics import percentile
from repro.sim.runner import SimulationResult


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of finalization latencies (virtual time)."""

    count: int
    finalized_fraction: float  # of all events, finalized during the run
    mean: float
    median: float
    p95: float
    maximum: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)


def summarize_latencies(
    result: SimulationResult, clock_name: str
) -> LatencySummary:
    """Summary of event→permanent-timestamp lag for one algorithm."""
    lat = sorted(result.finalization_latencies(clock_name).values())
    total = result.execution.n_events
    if not lat:
        return LatencySummary.empty()
    return LatencySummary(
        count=len(lat),
        finalized_fraction=len(lat) / total if total else 1.0,
        mean=sum(lat) / len(lat),
        median=percentile(lat, 0.5),
        p95=percentile(lat, 0.95),
        maximum=lat[-1],
    )


def finalized_fraction_curve(
    result: SimulationResult,
    clock_name: str,
    n_points: int = 20,
) -> List[Tuple[float, float]]:
    """``(time, fraction of occurred events already finalized)`` series.

    The paper's Section-6 picture: the finalized consistent cut trails the
    execution frontier and catches up as round trips complete.  At each
    sample instant ``t`` the fraction is ``|{e: finalized by t}| /
    |{e: occurred by t}|``.
    """
    if n_points < 2:
        raise ValueError("need at least 2 sample points")
    duration = result.duration
    event_times = sorted(result.event_times.values())
    fin_times = sorted(result.finalization_times[clock_name].values())
    out: List[Tuple[float, float]] = []
    for i in range(n_points):
        t = duration * i / (n_points - 1)
        occurred = _count_leq(event_times, t)
        finalized = _count_leq(fin_times, t)
        frac = 1.0 if occurred == 0 else finalized / occurred
        out.append((t, frac))
    return out


def finalization_latency_cdf(
    result: SimulationResult, clock_name: str
) -> List[Tuple[float, float]]:
    """Empirical CDF of finalization latencies, normalized over *all* events.

    Each point is ``(latency, fraction of all events finalized within that
    latency during the run)``.  Because the denominator is the total event
    count, the curve plateaus below 1.0 exactly when some events only
    finalize at termination — under faulty control channels the height of
    that plateau is the online-finalization coverage, the quantity the
    reliable control transport is designed to protect (experiment E16).
    """
    total = result.execution.n_events
    if total == 0:
        return []
    lat = sorted(result.finalization_latencies(clock_name).values())
    return [(v, (i + 1) / total) for i, v in enumerate(lat)]


def _count_leq(sorted_values: Sequence[float], t: float) -> int:
    lo, hi = 0, len(sorted_values)
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_values[mid] <= t:
            lo = mid + 1
        else:
            hi = mid
    return lo


def expected_star_finalization_latency(
    rate: float,
    p_local: float,
    delay: float,
) -> float:
    """Back-of-envelope model for radial finalization latency on a star.

    A radial event's timestamp finalizes once (a) the process sends its
    next message to the centre — expected wait ``1/(rate·(1-p_local))``
    under exponential inter-arrival actions of which a ``1-p_local``
    fraction are sends — and (b) that message plus the control reply cross
    the network: ``2·delay``.  Centre events finalize instantly, so the
    system-wide mean is lower; the model bounds the radial mean and tracks
    its scaling in the E8 rate sweep (asserted there within a loose
    factor).
    """
    if rate <= 0 or delay < 0:
        raise ValueError("rate must be positive and delay non-negative")
    if not 0.0 <= p_local < 1.0:
        raise ValueError("p_local must be in [0, 1)")
    send_rate = rate * (1.0 - p_local)
    return 1.0 / send_rate + 2.0 * delay


def mean_inflight_events(result: SimulationResult, clock_name: str) -> float:
    """Time-averaged number of events awaiting finalization.

    By Little's law this equals (finalization rate) × (mean latency); it is
    the "recovery-line gap" the paper's Section 1 alludes to, in event
    units.
    """
    fin = result.finalization_times[clock_name]
    if result.duration <= 0:
        return 0.0
    total_wait = sum(
        fin[eid] - result.event_times[eid] for eid in fin
    )
    return total_wait / result.duration
