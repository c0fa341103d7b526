"""Timestamping algorithms: the paper's inline schemes and online baselines."""

from repro.clocks.base import (
    INFINITY,
    ClockAlgorithm,
    DuplicateControl,
    Timestamp,
    vector_leq,
    vector_lt,
)
from repro.clocks.inline_cover import CoverInlineClock, CoverTimestamp
from repro.clocks.inline_star import StarInlineClock, StarTimestamp
from repro.clocks.lamport import LamportClock, LamportTimestamp
from repro.clocks.replay import (
    TimestampAssignment,
    ValidationReport,
    replay,
    replay_one,
)
from repro.clocks.vector import VectorClock, VectorTimestamp
from repro.clocks.vector_sk import SKVectorClock

__all__ = [
    "INFINITY",
    "ClockAlgorithm",
    "DuplicateControl",
    "Timestamp",
    "vector_leq",
    "vector_lt",
    "CoverInlineClock",
    "CoverTimestamp",
    "StarInlineClock",
    "StarTimestamp",
    "LamportClock",
    "LamportTimestamp",
    "TimestampAssignment",
    "ValidationReport",
    "replay",
    "replay_one",
    "VectorClock",
    "VectorTimestamp",
    "SKVectorClock",
]
