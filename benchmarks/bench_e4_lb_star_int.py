"""E4 — Lemma 2.2: online integer vectors need length ≥ n on a star.

One entry more than the real-valued case: the adversary prepends
``P = (M+2)·n`` computation events at the centre, forcing some coordinate
above the radial maximum, which frees it to pick a radial victim even for
length n−1.
"""

import pytest

from repro.analysis.reports import format_table
from repro.clocks import VectorClock
from repro.lowerbounds import (
    DroppedCoordinateScheme,
    FoldedVectorScheme,
    star_adversary_integer,
)

from _common import print_header


def run_sweep(n_values=(3, 4, 6, 8, 10)):
    rows = []
    for n in n_values:
        for name, factory, s in [
            ("folded(n-1)", lambda nn: FoldedVectorScheme(nn, nn - 1), n - 1),
            ("dropped-centre", lambda nn: DroppedCoordinateScheme(nn, 0), n - 1),
            ("folded(n/2)", lambda nn: FoldedVectorScheme(nn, max(1, nn // 2)),
             max(1, n // 2)),
            ("full-vector", VectorClock, n),
        ]:
            result = star_adversary_integer(factory, n)
            rows.append(
                (
                    n,
                    s,
                    name,
                    result.refuted,
                    result.violation.kind.value if result.violation else "-",
                    result.execution.n_events,
                )
            )
    return rows


def test_e4_lemma22(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_header("E4: Lemma 2.2 adversary (star, integer vectors)")
    print(
        format_table(
            ["n", "length s", "scheme", "refuted", "violation", "events"],
            rows,
        )
    )
    for n, s, name, refuted, _v, _e in rows:
        if name == "full-vector":
            assert not refuted
        else:
            assert refuted, f"{name} with s={s} <= n-1={n - 1} must be refuted"


def test_e4_integer_needs_one_more_than_real(benchmark):
    """The gap between Lemmas 2.1 and 2.2: length n-1 integer vectors fail
    on the star where the (hypothetical) real bound would allow them."""

    def run():
        n = 8
        return star_adversary_integer(
            lambda nn: FoldedVectorScheme(nn, nn - 1), n
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.refuted
    assert result.vector_length == 7  # n-1 integer entries: not enough
    print_header("E4b: n-1 integer entries refuted (n=8)")
    print(" ", result.violation.describe())
