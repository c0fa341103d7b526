#!/usr/bin/env python3
"""Scenario: debugging a distributed system with predicate detection.

A classic motivation for causality tracking (paper Section 6): detect
whether a *bad global state* — every worker simultaneously inside its
critical section — could have occurred.  We monitor a client/server system
with inline timestamps and run weak-conjunctive-predicate detection on the
finalized cut, comparing against what an online vector clock would answer.

Run:  python examples/debugging_predicate_detection.py
"""

from repro.applications.predicate import (
    detect_conjunctive,
    detect_with_inline,
)
from repro.clocks import CoverInlineClock, VectorClock
from repro.core import HappenedBeforeOracle
from repro.sim import ClientServerWorkload, Simulation
from repro.topology import generators


def main() -> None:
    # 2 servers (the vertex cover), 5 clients
    graph = generators.double_star(2, 3)
    n = graph.n_vertices
    cover = (0, 1)

    sim = Simulation(
        graph,
        seed=7,
        clocks={
            "inline": CoverInlineClock(graph, cover),
            "vector": VectorClock(n),
        },
    )
    result = sim.run(ClientServerWorkload(requests_per_client=12,
                                          servers=cover))
    ex = result.execution
    print(f"monitored {ex.n_events} events over topology with |VC|=2")

    # "critical section" = the worker has issued at least 5 requests;
    # local predicate holds from its 5th event onward
    workers = [p for p in range(n) if p not in cover and ex.events_at(p)]
    marks = {
        p: list(range(5, len(ex.events_at(p)) + 1))
        for p in workers
    }
    print(f"watching predicate over workers {workers}")

    # ------------------------------------------------------------------
    # online answer (vector clocks / ground truth)
    # ------------------------------------------------------------------
    oracle = HappenedBeforeOracle(ex)
    online = detect_conjunctive(oracle.happened_before, marks)
    print(f"\nonline detection (vector clocks): found = {online.found}")
    if online.witness:
        cut = {p: str(e) for p, e in sorted(online.witness.items())}
        print(f"  witness global state: {cut}")

    # ------------------------------------------------------------------
    # inline answer, mid-run: only events finalized during the run count
    # ------------------------------------------------------------------
    inline_asg = result.assignments["inline"]
    midrun = detect_with_inline(
        inline_asg, marks, finalized=set(result.finalization_times["inline"])
    )
    print(f"\ninline detection on the mid-run finalized cut: "
          f"found = {midrun.found}")

    # ------------------------------------------------------------------
    # inline answer after all timestamps finalize: agrees with online
    # ------------------------------------------------------------------
    final = detect_with_inline(
        inline_asg, marks, finalized={ev.eid for ev in ex.all_events()}
    )
    print(f"inline detection after finalization:          "
          f"found = {final.found}")
    assert final.found == online.found
    print("\ninline and online agree once timestamps finalize — with "
          "timestamps of 6 elements instead of "
          f"{n}.")


if __name__ == "__main__":
    main()
