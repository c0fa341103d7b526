"""What every workload hands back to the harness for one repetition."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: every isolated layer probe is timed at least this many times
PROBE_ROUNDS = 3


class Checks:
    """Correctness tally: operations attempted, operations failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def expect(self, ok: bool, what: str, weight: int = 1) -> None:
        """One pass/fail assertion counting as *weight* operations."""
        self.count(weight, 0 if ok else weight, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {failed} of {attempted} failed")

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: 20 - len(self.problems)])


@dataclass
class Rep:
    """One repetition: set-up, the timed region, and what it produced."""

    setup_s: float
    timed_s: float
    #: work done in the timed region, in the workload's own unit
    units: float
    checks: Checks
    #: deterministic counts of this rep; every rep of a run must agree
    exact: Dict[str, Any] = field(default_factory=dict)
    #: small per-rep facts the layer metrics need (section walls, reports)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: large objects the layer probes reuse (executions, oracles); the harness
    #: keeps them for the latest rep only, so memory does not grow with reps
    heavy: Dict[str, Any] = field(default_factory=dict)
    #: host slowdown around this rep (see ``host.py``), set by the harness
    slowdown: float = 1.0
    #: the seed this rep's input was generated from, set by the harness
    seed: int = 0

    @property
    def rate(self) -> float:
        """Units per second as measured."""
        return self.units / self.timed_s

    @property
    def calibrated_rate(self) -> float:
        """Units per second, host drift divided out."""
        return self.rate * self.slowdown


def same_counts(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Equal deterministic counts; ``None`` marks a count one side could not
    vouch for (frames sent, after a retransmission) and matches anything."""
    return a.keys() == b.keys() and all(
        a[key] == b[key] for key in a if None not in (a[key], b[key])
    )


def clocked(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """``(wall seconds, result)`` of one call."""
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def best_of(fn: Callable[[], Any]) -> float:
    """Least wall seconds of ``PROBE_ROUNDS`` calls — for sub-second layer probes,
    where the least-disturbed sample is the one closest to the code's cost."""
    return min(clocked(fn)[0] for _ in range(PROBE_ROUNDS))


def medians(timers: Dict[str, Callable[[], float]]) -> Dict[str, float]:
    """Median seconds per timer over ``PROBE_ROUNDS`` rounds.

    A timer returns the seconds of whatever it measures.  The timers take
    turns within a round, so host drift falls on every side of a difference
    between two of them alike; garbage is collected before each call.
    """
    walls: Dict[str, List[float]] = {name: [] for name in timers}
    for _ in range(PROBE_ROUNDS):
        for name, timer in timers.items():
            gc.collect()
            walls[name].append(timer())
    return {name: float(statistics.median(w)) for name, w in walls.items()}

