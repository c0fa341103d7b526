"""E1 — Timestamp element counts (Theorem 4.2; Section 3's "4 elements").

Claim: on any topology the inline timestamp holds at most ``2·|VC| + 2``
elements — exactly 4 on a star regardless of ``n`` — while the online
vector clock needs ``n``.  Measured from real executions across the
topology suite.
"""

import pytest

from repro.analysis.reports import format_table
from repro.clocks import CoverInlineClock, VectorClock, replay
from repro.topology.vertex_cover import best_cover

from _common import print_header, sample_execution, topology_suite


def _size_cell(name, graph, seed):
    """One (n, topology) sweep cell."""
    cover = best_cover(graph)
    ex = sample_execution(graph, seed=seed, steps=6 * graph.n_vertices)
    inline, vector = replay(
        ex,
        [
            CoverInlineClock(graph, tuple(cover)),
            VectorClock(graph.n_vertices),
        ],
    )
    return {
        "n": graph.n_vertices,
        "topology": name,
        "|VC|": len(cover),
        "inline_max": inline.max_elements(),
        "inline_mean": round(inline.mean_elements(), 2),
        "bound 2|VC|+2": 2 * len(cover) + 2,
        "vector": vector.max_elements(),
        "inline_wins": inline.max_elements() < vector.max_elements(),
    }


def build_rows(n_values=(8, 16, 32), seed=1):
    return [
        _size_cell(name, graph, seed)
        for n in n_values
        for name, graph in topology_suite(n, seed=seed).items()
    ]


def test_e1_table(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    print_header("E1: timestamp elements — inline (2|VC|+2) vs vector (n)")
    print(
        format_table(
            list(rows[0].keys()), [list(r.values()) for r in rows]
        )
    )
    for r in rows:
        # Theorem 4.2 bound always holds
        assert r["inline_max"] <= r["bound 2|VC|+2"]
        # vector clock is always n
        assert r["vector"] == r["n"]
        # stars: exactly 4 elements regardless of n (Section 3)
        if r["topology"] == "star":
            assert r["inline_max"] == 4
            assert r["inline_wins"]
        # the paper's crossover: small covers win, clique-like covers lose
        if r["|VC|"] < r["n"] / 2 - 1:
            assert r["inline_wins"]


def test_e1_star_constant_in_n(benchmark):
    """The headline: star inline size is constant while vector grows."""

    def measure():
        sizes = {}
        for n in (4, 8, 16, 32, 64):
            from repro.topology import generators

            graph = generators.star(n)
            ex = sample_execution(graph, seed=2, steps=4 * n)
            inline, vector = replay(
                ex, [CoverInlineClock(graph, (0,)), VectorClock(n)]
            )
            sizes[n] = (inline.max_elements(), vector.max_elements())
        return sizes

    sizes = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_header("E1b: star — inline constant (4) vs vector linear (n)")
    for n, (i, v) in sorted(sizes.items()):
        print(f"  n={n:>3}  inline={i}  vector={v}")
        assert i == 4
        assert v == n
