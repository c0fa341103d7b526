#!/usr/bin/env python3
"""Scenario: simulate, timestamp and validate 10^5 events in a laptop's RAM.

The ground-truth oracle keeps one n-entry vector clock per event — that
*is* the happened-before row (``e -> f  iff  vc_f[e.proc] >= e.index``) —
so a run costs O(E·n) integers, and the O(E²)-bit causal-past matrix is
only built if something asks for bits.  Sampled validation never does.

This script is the scale smoke CI runs against that property: the 3/4/16
sequencer deployment of Figure 4, inline-cover and vector clocks, the
online oracle fed during the run, then ``hb_oracle()`` and 20,000 sampled
pairs per clock.  With a matrix-building oracle the same run needs > 2.5 GB
at 10^5 events; here it must finish under 200 MB with zero mismatches.

A cut is a vector clock too, so the Section-6 stage runs at the same size:
a :class:`FinalizedCutMonitor` is fed the run's notifications, and the cut
it maintains must equal ``max_consistent_cut_within`` recomputed on the
frozen oracle — a fix-point over the clock table.  The budget is what fails
if a cut query ever builds rows again.

Run:  python examples/large_sampled_run.py [events_per_process]
      (default 2600, about 10^5 events; exit status 1 on a validation
      mismatch, a monitor cut that differs from the recomputed one, or a
      peak resident size over the budget)
"""

import random
import resource
import sys
import time
from typing import Optional

from repro.analysis.reports import format_table
from repro.applications.monitor import FinalizedCutMonitor
from repro.clocks import CoverInlineClock, VectorClock
from repro.core.cuts import cut_size, is_consistent, max_consistent_cut_within
from repro.sim import Simulation, UniformWorkload
from repro.topology import generators

FULL_EVENTS_PER_PROCESS = 2_600  # x 23 processes, plus receives: ~10^5 events
RSS_BUDGET_MB = 200
N_PAIRS = 20_000


def main(
    events_per_process: int = 120, rss_budget_mb: Optional[float] = None
) -> int:
    """Run the pipeline; returns the process exit status.

    Called bare (``tests/test_examples.py``) it runs a smoke size and skips
    the memory budget: the peak of a shared test process is not this run's.
    """
    graph, cover = generators.sequencer_architecture(
        3, 4, 16, rng=random.Random(1)
    )
    clocks = {
        "inline-cover": CoverInlineClock(graph, tuple(cover)),
        "vector": VectorClock(graph.n_vertices),
    }
    sim = Simulation(graph, seed=1, clocks=clocks, online_oracle=True)

    rows = []

    def timed(label, fn):
        start = time.perf_counter()
        out = fn()
        rows.append([label, f"{time.perf_counter() - start:.3f}"])
        return out

    workload = UniformWorkload(
        events_per_process=events_per_process, p_local=0.3
    )
    result = timed(
        "simulate + timestamp + stream the oracle", lambda: sim.run(workload)
    )
    # a hand-over; what it costs is the kernel choice's one-off numpy import
    oracle = timed("hb_oracle() (freeze)", result.hb_oracle)
    mismatches = 0
    for name, assignment in result.assignments.items():
        report = timed(
            f"validate_sampled({name}, {N_PAIRS} pairs)",
            lambda: assignment.validate_sampled(
                oracle, n_pairs=N_PAIRS, seed=1
            ),
        )
        mismatches += len(report.false_negatives) + len(report.false_positives)

    execution = result.execution
    finalized = result.finalization_times["inline-cover"]

    def monitor_cut():
        monitor = FinalizedCutMonitor(graph.n_vertices)
        for ev in execution.delivery_order():
            monitor.on_event(
                ev, execution.send_of(ev).eid if ev.is_receive else None
            )
        for eid in finalized:
            monitor.on_finalized(eid)
        return monitor.cut

    def recompute_cut():
        cut = max_consistent_cut_within(oracle, finalized.__contains__)
        return cut, is_consistent(oracle, cut)

    maintained = timed("FinalizedCutMonitor over the run", monitor_cut)
    recomputed, consistent = timed(
        "max_consistent_cut_within + is_consistent (frozen oracle)",
        recompute_cut,
    )
    cuts_agree = consistent and maintained == recomputed
    # ru_maxrss is KiB on Linux, bytes on macOS
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
        1024 * 1024 if sys.platform == "darwin" else 1024
    )
    n_events = execution.n_events
    print(
        format_table(
            ["stage", "seconds"],
            rows,
            title=f"{n_events} events on {graph.n_vertices} processes",
        )
    )
    print(
        f"events={n_events}  mismatches={mismatches}  "
        f"finalized_cut={cut_size(recomputed)} events "
        f"({'==' if cuts_agree else '!='} monitor)  "
        f"peak_rss_mb={peak_mb:.1f}"
        + (f"  (budget {rss_budget_mb:.0f})" if rss_budget_mb else "")
    )
    over = rss_budget_mb is not None and peak_mb > rss_budget_mb
    return 1 if mismatches or over or not cuts_agree else 0


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else FULL_EVENTS_PER_PROCESS
    sys.exit(main(size, rss_budget_mb=RSS_BUDGET_MB))
