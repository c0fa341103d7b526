"""E12 — Extension experiments beyond the paper's core claims.

Three studies the paper's discussion motivates but does not evaluate:

- **E12a (Charron-Bost, reference [2]):** the classic dimension-``n``
  construction the paper generalizes.  We build the execution, certify the
  embedded crown ``S⁰ₙ`` against the oracle, and thereby certify that *no*
  ``(n-1)``-element vector assignment — online or offline — exists for it.
- **E12b (Singhal–Kshemkalyani, reference [21] context):** differential
  vector-clock transmission vs the inline schemes' fixed piggyback: SK
  compresses messages but still stores ``n``-element timestamps and needs
  FIFO channels; the inline scheme bounds *both* message and storage cost.
- **E12c (cut-maintenance ablation, DESIGN.md):** incremental
  finalized-cut monitoring vs recompute-from-scratch — identical cuts,
  very different asymptotics.
"""

import random
import time

import pytest

from repro.analysis.reports import format_table
from repro.applications.monitor import FinalizedCutMonitor
from repro.clocks import CoverInlineClock, SKVectorClock, VectorClock
from repro.core import HappenedBeforeOracle
from repro.core.cuts import max_consistent_cut_within
from repro.core.random_executions import random_execution
from repro.lowerbounds import (
    certified_dimension_lower_bound,
    charron_bost_execution,
    is_crown_embedding,
)
from repro.sim import Simulation, UniformWorkload
from repro.topology import generators

from _common import print_header


def test_e12a_charron_bost(benchmark):
    def sweep():
        rows = []
        for n in (3, 4, 6, 8, 10):
            ex, witness = charron_bost_execution(n)
            hb = HappenedBeforeOracle(ex).happened_before
            rows.append(
                (
                    n,
                    ex.n_events,
                    is_crown_embedding(
                        hb, witness.a_events, witness.b_events
                    ),
                    witness.dimension_lower_bound,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("E12a: Charron-Bost executions — certified dimension ≥ n")
    print(
        format_table(
            ["n", "events", "crown verified", "dimension lower bound"],
            rows,
        )
    )
    for n, _e, verified, bound in rows:
        assert verified
        assert bound == n
    assert certified_dimension_lower_bound(5) == 5


def test_e12b_sk_vs_inline_payload(benchmark):
    """Per-message transmission cost: SK diffs vs inline fixed piggyback."""

    def measure():
        rows = []
        for n in (8, 16, 32):
            g = generators.star(n)
            sim = Simulation(
                g,
                seed=3,
                clocks={
                    "vector": VectorClock(n),
                    "vector-sk": SKVectorClock(n),
                    "inline": CoverInlineClock(g, (0,)),
                },
                fifo_app_channels=True,
            )
            res = sim.run(
                UniformWorkload(events_per_process=20, p_local=0.2)
            )
            msgs = max(1, res.app_messages)
            row = {"n": n}
            for name in ("vector", "vector-sk", "inline"):
                stats = res.stats[name]
                row[f"{name} el/msg"] = round(
                    stats.app_payload_elements / msgs, 2
                )
            row["inline ts elements"] = res.assignments[
                "inline"
            ].max_elements()
            row["sk ts elements"] = res.assignments[
                "vector-sk"
            ].max_elements()
            rows.append(row)
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_header("E12b: transmission vs storage — SK diff clocks vs inline")
    print(format_table(list(rows[0].keys()),
                       [list(r.values()) for r in rows]))
    for r in rows:
        n = r["n"]
        # SK compresses messages below the full vector
        assert r["vector-sk el/msg"] < r["vector el/msg"] == n
        # but its *storage* stays n while inline storage stays 4
        assert r["sk ts elements"] == n
        assert r["inline ts elements"] == 4
        # inline piggyback is constant (src, mctr, mpre[1])
        assert r["inline el/msg"] == 3


def test_e12c_monitor_ablation(benchmark):
    """Incremental cut maintenance vs oracle recomputation."""

    def run_ablation():
        rng = random.Random(5)
        g = generators.star(8)
        ex = random_execution(g, rng, steps=300, deliver_all=True)
        oracle = HappenedBeforeOracle(ex)
        ids = [ev.eid for ev in ex.all_events()]
        rng.shuffle(ids)

        # incremental
        t0 = time.perf_counter()
        monitor = FinalizedCutMonitor(8)
        for ev in ex.delivery_order():
            send_eid = ex.send_of(ev).eid if ev.is_receive else None
            monitor.on_event(ev, send_eid)
        for eid in ids:
            monitor.on_finalized(eid)
        incr_time = time.perf_counter() - t0
        incr_cut = monitor.cut

        # recompute-from-scratch after every finalization
        t0 = time.perf_counter()
        finalized = set()
        cut = None
        for eid in ids:
            finalized.add(eid)
            cut = max_consistent_cut_within(
                oracle, lambda e: e in finalized
            )
        recompute_time = time.perf_counter() - t0
        return incr_cut, cut, incr_time, recompute_time, ex.n_events

    incr_cut, recompute_cut, t_incr, t_rec, n_events = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    print_header("E12c: cut maintenance ablation (300-event run)")
    print(f"  final cuts identical: {incr_cut == recompute_cut}")
    print(f"  incremental: {t_incr * 1e3:.1f} ms total "
          f"({t_incr / n_events * 1e6:.1f} us/event)")
    print(f"  recompute:   {t_rec * 1e3:.1f} ms total "
          f"({t_rec / n_events * 1e6:.1f} us/event)")
    print(f"  speedup: {t_rec / max(t_incr, 1e-9):.1f}x")
    assert incr_cut == recompute_cut
    assert t_incr < t_rec  # the ablation's point
