"""The coordinates a conformance campaign may run on.

Kept apart from :mod:`repro.conformance.fuzzer` so that a coordinator can
check a campaign before sharding it without importing the fuzzer (a forked
fabric worker would inherit that import and skip its own).
"""

from __future__ import annotations

from typing import Sequence

#: the graph families a campaign draws its trials from
TRIAL_TOPOLOGIES = ("star", "tree", "random")


def check_campaign(topologies: Sequence[str], max_steps: int) -> None:
    """``ValueError`` for campaign coordinates no trial can run on: a
    negative step bound, or a topology list that is empty or names a
    family outside :data:`TRIAL_TOPOLOGIES`."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if not topologies:
        raise ValueError("topologies must name at least one family")
    for kind in topologies:
        if kind not in TRIAL_TOPOLOGIES:
            raise ValueError(
                f"unknown topology kind {kind!r}; expected one of "
                f"{TRIAL_TOPOLOGIES}"
            )
