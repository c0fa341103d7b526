"""E3 — Lemma 2.1: online real-valued vectors need length ≥ n−1 on a star.

The executable adversary refutes every candidate scheme of length ≤ n−2
(finding the concurrent pair it wrongly orders) while the full vector clock
survives the same construction.
"""

import pytest

from repro.analysis.reports import format_table
from repro.clocks import VectorClock
from repro.lowerbounds import (
    ProjectedVectorScheme,
    star_adversary_real,
)

from _common import print_header


def run_sweep(n_values=(4, 6, 8, 12, 16)):
    rows = []
    for n in n_values:
        for s in sorted({1, n // 2, n - 2}):
            if s < 1:
                continue
            result = star_adversary_real(
                lambda nn, s=s: ProjectedVectorScheme(nn, s, seed=n), n
            )
            rows.append(
                (
                    n,
                    s,
                    "projected-real",
                    result.refuted,
                    result.violation.kind.value if result.violation else "-",
                )
            )
        full = star_adversary_real(VectorClock, n)
        rows.append((n, n, "full-vector", full.refuted, "-"))
    return rows


def test_e3_lemma21(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_header("E3: Lemma 2.1 adversary (star, real-valued vectors)")
    print(
        format_table(
            ["n", "length s", "scheme", "refuted", "violation"], rows
        )
    )
    for n, s, scheme, refuted, _v in rows:
        if scheme == "full-vector":
            assert not refuted, f"full vector clock must survive (n={n})"
        elif s <= n - 2:
            assert refuted, f"scheme of length {s} <= n-2 must be refuted"


def test_e3_violation_is_on_predicted_pair(benchmark):
    """The refutation lands exactly on the pair the proof constructs."""

    def run():
        return star_adversary_real(
            lambda nn: ProjectedVectorScheme(nn, nn - 2, seed=5), 10
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.refuted
    assert result.predicted_pair is not None
    v = result.violation
    assert v is not None and {v.e, v.f} == set(result.predicted_pair)
    print_header("E3b: concrete Lemma 2.1 counterexample (n=10, s=8)")
    print(" ", v.describe())
