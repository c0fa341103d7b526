"""E7 — Theorems 3.1 / 4.1: the inline comparison is exactly happened-before.

Exhaustive pairwise validation across the topology suite, plus the
accuracy/size frontier against the lossy baselines (Lamport, plausible) and
characterizing baselines (vector, encoded, cluster).
"""

import random

import pytest

from repro.analysis.reports import format_table
from repro.baselines import ClusterClock, EncodedClock, PlausibleClock
from repro.clocks import (
    CoverInlineClock,
    LamportClock,
    StarInlineClock,
    VectorClock,
    replay,
)
from repro.core import HappenedBeforeOracle
from repro.topology.vertex_cover import best_cover

from _common import print_header, sample_execution, topology_suite


def _validate_cell(name, graph, cover, seed):
    """One (topology, seed) sweep cell."""
    nn = graph.n_vertices
    ex = sample_execution(graph, seed=seed, steps=5 * nn)
    oracle = HappenedBeforeOracle(ex)
    algos = [
        CoverInlineClock(graph, cover),
        VectorClock(nn),
        EncodedClock(nn),
        ClusterClock(nn),
        LamportClock(nn),
        PlausibleClock(nn, max(1, len(cover))),
    ]
    rows = []
    for asg in replay(ex, algos):
        report = asg.validate(oracle)
        rows.append(
            {
                "topology": name,
                "seed": seed,
                "scheme": asg.algorithm.name,
                "events": report.n_events,
                "consistent": report.is_consistent,
                "exact": report.characterizes,
                "fp_rate": round(report.false_positive_rate, 4),
                "max_el": asg.max_elements(),
            }
        )
    return rows


def validate_suite(n=10, seeds=(1, 2, 3)):
    rows = []
    for name, graph in topology_suite(n, seed=0).items():
        cover = tuple(best_cover(graph))
        for seed in seeds:
            rows.extend(_validate_cell(name, graph, cover, seed))
    return rows


def test_e7_exactness(benchmark):
    rows = benchmark.pedantic(validate_suite, rounds=1, iterations=1)
    print_header("E7: exhaustive pairwise validation vs happened-before")
    # print one aggregated row per (topology, scheme)
    agg = {}
    for r in rows:
        key = (r["topology"], r["scheme"])
        cur = agg.setdefault(
            key,
            {"events": 0, "consistent": True, "exact": True, "fp": 0.0,
             "max_el": 0},
        )
        cur["events"] += r["events"]
        cur["consistent"] &= r["consistent"]
        cur["exact"] &= r["exact"]
        cur["fp"] = max(cur["fp"], r["fp_rate"])
        cur["max_el"] = max(cur["max_el"], r["max_el"])
    print(
        format_table(
            ["topology", "scheme", "events", "consistent", "exact",
             "max fp_rate", "max elements"],
            [
                [t, s, v["events"], v["consistent"], v["exact"], v["fp"],
                 v["max_el"]]
                for (t, s), v in sorted(agg.items())
            ],
        )
    )
    characterizing = {"inline-cover", "vector", "encoded-prime", "cluster"}
    for r in rows:
        assert r["consistent"], r
        if r["scheme"] in characterizing:
            assert r["exact"], r
    # lossy schemes really are lossy somewhere
    lamport_fp = [r["fp_rate"] for r in rows if r["scheme"] == "lamport"]
    assert max(lamport_fp) > 0


def test_e7_star_theorem31(benchmark):
    """Star algorithm (Theorem 3.1) validated on larger stars."""

    def run():
        from repro.topology import generators

        out = []
        for n in (6, 12, 24):
            graph = generators.star(n)
            ex = sample_execution(graph, seed=9, steps=5 * n)
            asg = replay(ex, [StarInlineClock(n)])[0]
            out.append((n, ex.n_events, asg.validate().characterizes))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("E7b: Theorem 3.1 on stars")
    print(format_table(["n", "events", "exact"], rows))
    for _n, _e, exact in rows:
        assert exact
