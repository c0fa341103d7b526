"""E13 — Synchronous computations (paper §5, Figure 3 context).

The paper contrasts its inline timestamps with Garg–Skawratananond's
synchronous-message timestamps (``d + 4`` elements over a star/triangle
edge decomposition).  This experiment runs our component-timestamp variant
of that idea on the synchronous joint-event model:

- exactness against the core oracle, a synchronous message being four
  asynchronous events (``repro.sync.model``);
- element counts: ``2d + 4`` (component scheme) vs ``n`` (vector clocks)
  vs the asynchronous inline ``2|VC| + 2`` on the same topology;
- the decomposition ablation: triangles can beat pure stars on dense
  graphs (``d ≤ |VC|`` there), while on triangle-free graphs both collapse
  to the cover.
"""

import random

import pytest

from repro.analysis.reports import format_table
from repro.sync.component_clock import ComponentSyncClock, timestamp_mismatches
from repro.sync.decomposition import (
    best_decomposition,
    star_decomposition,
    star_triangle_decomposition,
)
from repro.sync.model import random_sync_execution
from repro.topology import generators
from repro.topology.vertex_cover import best_cover

from _common import print_header


def suite():
    return {
        "star(8)": generators.star(8),
        "star(24)": generators.star(24),
        "double_star": generators.double_star(3, 4),
        "triangle": generators.clique(3),
        "clique(6)": generators.clique(6),
        "cycle(8)": generators.cycle(8),
        "bipartite(2,6)": generators.complete_bipartite(2, 6),
    }


def run_rows():
    rows = []
    for name, g in suite().items():
        n = g.n_vertices
        dec = best_decomposition(g)
        ex, joints = random_sync_execution(g, random.Random(1), steps=5 * n)
        clock = ComponentSyncClock(dec)
        clock.replay(ex, joints)
        clock.finalize_at_termination()
        exact = not timestamp_mismatches(clock, ex, joints)
        cover = best_cover(g)
        rows.append(
            {
                "graph": name,
                "n": n,
                "d": dec.d,
                "|VC|": len(cover),
                "sync max el": clock.max_elements(),
                "bound 2d+4": 2 * dec.d + 4,
                "async inline": 2 * len(cover) + 2,
                "vector": n,
                "exact": exact,
            }
        )
    return rows


def test_e13_component_timestamps(benchmark):
    rows = benchmark.pedantic(run_rows, rounds=1, iterations=1)
    print_header("E13: synchronous component timestamps vs alternatives")
    print(format_table(list(rows[0].keys()),
                       [list(r.values()) for r in rows]))
    for r in rows:
        assert r["exact"]
        assert r["sync max el"] <= r["bound 2d+4"]
        if r["graph"].startswith("star"):
            assert r["d"] == 1  # constant-size timestamps on stars
            assert r["sync max el"] <= 6


def test_e13_decomposition_ablation(benchmark):
    """Triangles vs pure stars: d comparison across densities."""

    def sweep():
        rows = []
        rng = random.Random(9)
        for name, g in [
            ("triangle", generators.clique(3)),
            ("clique(5)", generators.clique(5)),
            ("clique(7)", generators.clique(7)),
            ("cycle(7)", generators.cycle(7)),
            ("random(10,.4)", generators.erdos_renyi(10, 0.4, rng)),
        ]:
            star_d = star_decomposition(g).d
            tri_d = star_triangle_decomposition(g).d
            best_d = best_decomposition(g).d
            rows.append((name, g.n_vertices, star_d, tri_d, best_d))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("E13b: decomposition ablation (pure stars vs +triangles)")
    print(
        format_table(
            ["graph", "n", "d (stars only)", "d (greedy triangles)",
             "d (best of both)"],
            rows,
        )
    )
    # triangles strictly win on K3 ...
    k3 = [r for r in rows if r[0] == "triangle"][0]
    assert k3[3] < k3[2]
    # ... but greedy triangle extraction can fragment the leftover graph
    # and *lose* (an honest negative result this ablation documents);
    # best_decomposition always takes the minimum of the two.
    for _name, _n, sd, td, bd in rows:
        assert bd == min(sd, td)


def test_e13_finalization_fraction(benchmark):
    """Inline-style W entries finalize quickly under steady messaging."""

    def measure():
        g = generators.star(10)
        dec = star_decomposition(g)
        ex, joints = random_sync_execution(
            g, random.Random(4), steps=80, p_internal=0.5
        )
        clock = ComponentSyncClock(dec)
        clock.replay(ex, joints)
        final_before_term = sum(map(clock.is_final, range(len(joints))))
        clock.finalize_at_termination()
        return final_before_term, len(joints)

    final, total = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_header("E13c: fraction of sync events finalized before termination")
    print(f"  {final}/{total} = {final / total:.2%}")
    assert final > 0


def test_e13_timed_finalization_latency(benchmark):
    """Rendezvous-timed simulation: finalization latency of the component
    clock scales with how long a process waits for its next message."""
    from repro.analysis.latency import percentile
    from repro.sync.timed import simulate_sync

    def sweep():
        g = generators.star(8)
        rows = []
        for p_internal in (0.1, 0.5, 0.8):
            res = simulate_sync(
                g, actions_per_process=20, p_internal=p_internal, seed=6
            )
            lats = sorted(res.finalization_latencies().values())
            mean = sum(lats) / len(lats) if lats else 0.0
            rows.append(
                (
                    p_internal,
                    res.fraction_finalized_during_run(),
                    round(mean, 3),
                    round(percentile(lats, 0.95), 3),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("E13d: rendezvous-timed finalization latency (star n=8)")
    print(
        format_table(
            ["p_internal", "finalized frac", "mean latency", "p95"],
            rows,
        )
    )
    # messaging-heavy runs finalize faster than internal-heavy runs
    assert rows[0][2] <= rows[-1][2] + 1e-9
