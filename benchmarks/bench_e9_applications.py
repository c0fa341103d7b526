"""E9 — Applications with inline timestamps (Section 6).

Claims reproduced in shape:

- predicate detection with inline timestamps succeeds on the finalized cut
  and agrees with the online answer; mid-run it may lag but never answers
  differently once finalized;
- rollback recovery from inline knowledge yields a recovery line at most a
  small number of events behind the online line ("somewhat earlier ...
  negligible");
- replay and concurrent-update detection from inline timestamps match the
  ground truth exactly.
"""

import pytest

from repro.analysis.reports import format_table
from repro.applications.concurrent_updates import conflict_resolution_status
from repro.applications.predicate import (
    detect_conjunctive,
    detect_with_inline,
)
from repro.applications.recovery import recovery_line_lag
from repro.applications.replay import is_causal_schedule, replay_schedule
from repro.clocks import StarInlineClock, VectorClock
from repro.core import HappenedBeforeOracle
from repro.core.events import EventId
from repro.sim import ConstantDelay, Simulation, UniformWorkload
from repro.topology import generators

from _common import print_header


def run_sim(seed=0, n=6, events=20):
    g = generators.star(n)
    sim = Simulation(
        g,
        seed=seed,
        clocks={"inline": StarInlineClock(n), "vector": VectorClock(n)},
        delay_model=ConstantDelay(1.0),
    )
    return sim.run(UniformWorkload(events_per_process=events, p_local=0.3))


def test_e9_recovery_lag(benchmark):
    def sweep():
        res = run_sim(seed=1)
        rows = []
        for frac in (0.25, 0.5, 0.75, 1.0):
            cmp = recovery_line_lag(
                res, "inline", failure_time=res.duration * frac, every_k=4
            )
            rows.append(
                (round(frac, 2), cmp.online_events, cmp.inline_events,
                 cmp.lag_events)
            )
        return res, rows

    res, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("E9: recovery-line lag, inline vs online knowledge")
    print(
        format_table(
            ["failure at (frac of run)", "online line (events)",
             "inline line (events)", "lag"],
            rows,
        )
    )
    total = res.execution.n_events
    for _f, online, inline, lag in rows:
        assert 0 <= lag
        # the paper's 'negligible' claim: lag is a small fraction of the run
        assert lag <= 0.5 * total
    # lines grow with failure time
    assert rows[-1][1] >= rows[0][1]


def test_e9_predicate_detection(benchmark):
    def run():
        res = run_sim(seed=2)
        oracle = HappenedBeforeOracle(res.execution)
        ex = res.execution
        # predicate: 'process has executed at least 3 events' at p1..p3
        marks = {
            p: [i for i in range(3, len(ex.events_at(p)) + 1)]
            for p in (1, 2, 3)
        }
        online = detect_conjunctive(oracle.happened_before, marks)
        inline_final = detect_with_inline(
            res.assignments["inline"],
            marks,
            finalized={ev.eid for ev in ex.all_events()},
        )
        inline_partial = detect_with_inline(
            res.assignments["inline"],
            marks,
            finalized=set(res.finalization_times["inline"]),
        )
        return online, inline_final, inline_partial

    online, inline_final, inline_partial = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_header("E9b: conjunctive predicate detection")
    print(f"  online (vector clock): found={online.found}")
    print(f"  inline, all finalized: found={inline_final.found}")
    print(f"  inline, mid-run cut:   found={inline_partial.found}")
    # once everything is finalized the answers agree
    assert online.found == inline_final.found
    # the mid-run cut can only under-detect, never invent a witness
    if inline_partial.found:
        assert online.found


def test_e9_replay(benchmark):
    def run():
        res = run_sim(seed=3)
        order = replay_schedule(res.assignments["inline"])
        return res.execution, order

    ex, order = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("E9c: replay schedule from inline timestamps")
    print(f"  events scheduled: {len(order)}; causal: "
          f"{is_causal_schedule(ex, order)}")
    assert is_causal_schedule(ex, order)


def test_e9_detection_lag(benchmark):
    """How much later does the inline detector fire? (Section 6's
    'detected eventually' made quantitative.)"""
    from repro.applications.detection_latency import detection_lag

    def sweep():
        rows = []
        for seed in (1, 2, 3, 4, 5):
            res = run_sim(seed=seed, events=20)
            ex = res.execution
            marks = {
                p: list(range(3, len(ex.events_at(p)) + 1))
                for p in range(1, ex.n_processes)
                if len(ex.events_at(p)) >= 3
            }
            if not marks:
                continue
            lag = detection_lag(res, marks, "inline")
            rows.append(
                (seed, lag.online_time, lag.inline_time, lag.lag,
                 res.duration)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_header("E9e: predicate first-detection time, online vs inline")
    print(
        format_table(
            ["seed", "online detects at", "inline detects at",
             "lag (virtual time)", "run duration"],
            [
                [s, o if o is not None else "-",
                 i if i is not None else "-",
                 l if l is not None else "-", d]
                for s, o, i, l, d in rows
            ],
        )
    )
    for _s, online, inline, lag, duration in rows:
        if inline is not None:
            assert online is not None and inline >= online
            assert lag is not None and 0 <= lag <= duration


def test_e9_conflict_detection(benchmark):
    def run():
        res = run_sim(seed=4)
        ex = res.execution
        # every send event is an 'update' to a key named by parity
        updates = {
            ev.eid: f"k{ev.eid.proc % 2}"
            for ev in ex.all_events()
            if ev.is_send
        }
        report_final = conflict_resolution_status(
            res.assignments["inline"], updates
        )
        report_partial = conflict_resolution_status(
            res.assignments["inline"],
            updates,
            finalized=set(res.finalization_times["inline"]),
        )
        return report_final, report_partial

    final, partial = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("E9d: concurrent-update detection")
    print(f"  true conflicts:            {len(final.true_conflicts)}")
    print(f"  detected (all finalized):  {len(final.detected_conflicts)}")
    print(f"  detected (mid-run):        {len(partial.detected_conflicts)} "
          f"(+{partial.undecided_pairs} pairs undecided)")
    assert final.exact
    assert not partial.spurious
    assert partial.detected_conflicts <= final.true_conflicts
