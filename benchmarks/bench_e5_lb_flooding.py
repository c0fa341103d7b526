"""E5 — Lemmas 2.3 / 2.4: flooding lower bounds on general graphs.

2-connected graphs force online vector length ``n``; connectivity-1 graphs
force length ``|X|`` (the non-cut vertices).  The slow-channel flooding
adversary refutes every shorter candidate while the full vector clock
survives.
"""

import pytest

from repro.analysis.reports import format_table
from repro.clocks import VectorClock
from repro.lowerbounds import (
    FoldedVectorScheme,
    flooding_adversary,
)
from repro.topology import generators
from repro.topology.properties import lemma_2_4_set_x, vertex_connectivity

from _common import print_header


def lemma23_rows():
    graphs = {
        "cycle(6)": generators.cycle(6),
        "cycle(9)": generators.cycle(9),
        "wheel(7)": generators.wheel(7),
        "clique(5)": generators.clique(5),
        "theta(1,2)": generators.theta_graph([1, 2]),
        "K(2,4)": generators.complete_bipartite(2, 4),
    }
    rows = []
    for name, g in graphs.items():
        n = g.n_vertices
        kappa = vertex_connectivity(g)
        short = flooding_adversary(lambda nn: FoldedVectorScheme(nn, nn - 1), g)
        full = flooding_adversary(VectorClock, g)
        rows.append(
            (name, n, kappa, n - 1, short.refuted, not full.refuted)
        )
    return rows


def lemma24_rows():
    graphs = {
        "star(6)": generators.star(6),
        "star(10)": generators.star(10),
        "double_star(3,3)": generators.double_star(3, 3),
        "path(6)": generators.path(6),
        "caterpillar(3,2)": generators.caterpillar(3, 2),
    }
    rows = []
    for name, g in graphs.items():
        x = lemma_2_4_set_x(g)
        s = len(x) - 1
        short = flooding_adversary(
            lambda nn, s=s: FoldedVectorScheme(nn, s), g, restrict_to_x=True
        )
        full = flooding_adversary(
            VectorClock, g, restrict_to_x=True
        )
        rows.append(
            (name, g.n_vertices, len(x), s, short.refuted, not full.refuted)
        )
    return rows


def test_e5_lemma23(benchmark):
    rows = benchmark.pedantic(lemma23_rows, rounds=1, iterations=1)
    print_header("E5a: Lemma 2.3 — 2-connected graphs need length n")
    print(
        format_table(
            ["graph", "n", "kappa", "tested s", "short refuted", "full survives"],
            rows,
        )
    )
    for name, n, kappa, s, refuted, full_ok in rows:
        assert kappa >= 2
        assert refuted, f"{name}: length {s} must be refuted"
        assert full_ok, f"{name}: full vector clock must survive"


def test_e5_timed_slow_channel_argument(benchmark):
    """The quantitative half of the proofs: with victim channels slower
    than 2δD, flooding among the other n-1 processes completes strictly
    before any contact with the victim (run with real virtual-time delays
    on the simulator)."""
    from repro.sim import slow_victim_flood

    def sweep():
        rows = []
        for name, g, victim in [
            ("cycle(6)", generators.cycle(6), 0),
            ("cycle(9)", generators.cycle(9), 4),
            ("wheel(7)", generators.wheel(7), 2),
            ("clique(5)", generators.clique(5), 1),
        ]:
            t = slow_victim_flood(g, victim=victim, delta=1.0)
            rows.append(
                (
                    name,
                    victim,
                    t.flood_bound,
                    round(max(t.completion_times.values()), 2),
                    round(t.first_victim_contact, 2)
                    if t.first_victim_contact is not None
                    else "-",
                    t.separation_holds,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("E5c: timed slow-channel adversary (δ=1, victim > 2δD)")
    print(
        format_table(
            ["graph", "victim", "δ·D bound", "flood completes by",
             "first victim contact", "separation holds"],
            rows,
        )
    )
    for _name, _v, bound, completes, contact, sep in rows:
        assert sep
        assert completes <= bound + 0.1


def test_e5_lemma24(benchmark):
    rows = benchmark.pedantic(lemma24_rows, rounds=1, iterations=1)
    print_header("E5b: Lemma 2.4 — connectivity-1 graphs need length |X|")
    print(
        format_table(
            ["graph", "n", "|X|", "tested s", "short refuted", "full survives"],
            rows,
        )
    )
    for name, n, x_size, s, refuted, full_ok in rows:
        assert refuted, f"{name}: length {s} = |X|-1 must be refuted"
        assert full_ok

    # the paper's star observation: |X| = n-1
    star_row = [r for r in rows if r[0] == "star(10)"][0]
    assert star_row[2] == 9
