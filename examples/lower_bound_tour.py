#!/usr/bin/env python3
"""Tour of the paper's lower bounds, run live.

Every negative result of Sections 2 and 4.3 as an executable adversary:

1. Lemma 2.1  — star, real-valued online vectors of length ≤ n−2: refuted.
2. Lemma 2.2  — star, integer online vectors of length ≤ n−1: refuted.
3. Lemma 2.3  — 2-connected graph, length ≤ n−1: refuted by flooding.
4. Lemma 2.4  — connectivity-1 graph, length ≤ |X|−1: refuted by flooding.
5. Theorem 4.4 — no 2-element *offline* timestamps on the 4-process star
   (order-dimension argument, decided exactly).

In each case the full n-element vector clock survives the same adversary —
the bounds are tight where the paper says they are.

Run:  python examples/lower_bound_tour.py
"""

from repro.clocks import VectorClock
from repro.lowerbounds import (
    FoldedVectorScheme,
    ProjectedVectorScheme,
    execution_dimension_exceeds_2,
    find_high_dimension_execution,
    flooding_adversary,
    offline_two_element_assignment,
    star_adversary_integer,
    star_adversary_real,
    theorem_4_4_witness,
)
from repro.topology import generators
from repro.topology.properties import lemma_2_4_set_x


def main() -> None:
    n = 8

    print("1) Lemma 2.1 — real-valued online vectors on the star")
    r = star_adversary_real(
        lambda nn: ProjectedVectorScheme(nn, nn - 2, seed=1), n
    )
    print(f"   length n-2={n - 2}: refuted={r.refuted}")
    print(f"   counterexample: {r.violation.describe()}")
    ok = star_adversary_real(VectorClock, n)
    print(f"   full vector clock (length n): refuted={ok.refuted}")

    print("\n2) Lemma 2.2 — integer online vectors on the star")
    r = star_adversary_integer(
        lambda nn: FoldedVectorScheme(nn, nn - 1), n
    )
    print(f"   length n-1={n - 1}: refuted={r.refuted}")
    print(f"   counterexample: {r.violation.describe()}")

    print("\n3) Lemma 2.3 — 2-connected graphs (cycle of 7)")
    g = generators.cycle(7)
    r = flooding_adversary(lambda nn: FoldedVectorScheme(nn, nn - 1), g)
    print(f"   length n-1=6: refuted={r.refuted}")
    ok = flooding_adversary(VectorClock, g)
    print(f"   full vector clock: refuted={ok.refuted}")

    print("\n4) Lemma 2.4 — connectivity-1 graphs (star of 8)")
    g = generators.star(8)
    x = lemma_2_4_set_x(g)
    print(f"   X (non-cut vertices) = {sorted(x)}  (|X| = {len(x)} = n-1)")
    r = flooding_adversary(
        lambda nn: FoldedVectorScheme(nn, len(x) - 1), g, restrict_to_x=True
    )
    print(f"   length |X|-1={len(x) - 1}: refuted={r.refuted}")

    print("\n5) Theorem 4.4 — no 2-element offline timestamps (4-proc star)")
    w = theorem_4_4_witness()
    print(f"   fixed witness: {w.n_events} events, "
          f"order dimension > 2: {execution_dimension_exceeds_2(w)}")
    print(f"   2-element assignment exists: "
          f"{offline_two_element_assignment(w) is not None}")
    search = find_high_dimension_execution(seed=12, max_trials=1000)
    print(f"   random search rediscovers a witness at trial "
          f"{search.trials}")
    print("\n   (the star inline timestamp uses 4 elements — within 1 of "
          "this bound; size 3 remains the paper's open question)")


if __name__ == "__main__":
    main()
