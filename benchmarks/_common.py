"""Shared helpers for the benchmark/experiment harness.

Each ``bench_e*.py`` module regenerates one of the paper's quantitative
claims (see DESIGN.md's per-experiment index): it computes the table or
series, prints it (visible with ``pytest -s``), asserts the claim's *shape* (who wins, by roughly what factor, where the
crossover falls), and wraps a representative computation in
pytest-benchmark for timing.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.bench import cell_seed
from repro.clocks import (
    ClockAlgorithm,
    CoverInlineClock,
    LamportClock,
    StarInlineClock,
    VectorClock,
    replay,
)
from repro.core import HappenedBeforeOracle
from repro.core.random_executions import random_execution
from repro.topology import generators
from repro.topology.graph import CommunicationGraph
from repro.topology.vertex_cover import best_cover


def topology_suite(n: int, seed: int = 0) -> Dict[str, CommunicationGraph]:
    """The benchmark topology families at size ~n."""
    rng = random.Random(seed)
    return {
        "star": generators.star(n),
        "double_star": generators.double_star(n // 2 - 1, n - n // 2 - 1),
        "cycle": generators.cycle(n),
        "tree": generators.random_tree(n, rng),
        "bipartite": generators.complete_bipartite(max(1, n // 4), n - max(1, n // 4)),
        "random(p=0.15)": generators.erdos_renyi(n, 0.15, rng),
        "clique": generators.clique(min(n, 12)),
    }


def sample_execution(graph: CommunicationGraph, seed: int, steps: int = 200):
    return random_execution(
        graph, random.Random(seed), steps=steps, deliver_all=True
    )


__all__ = [
    "cell_seed",
    "print_header",
    "sample_execution",
    "topology_suite",
]


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
