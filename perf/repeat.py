"""Run the benchmark in sets and check it agrees with itself.

    python3 perf/repeat.py --sets 2

One set is ten untraced runs of every workload, seeds 1 to 10, plus one
traced run with seed 1.  Per workload and end-to-end metric it prints each
set's median and spread (interquartile range as a share of the median) next
to the metric's bound, and fails when

- a run failed its output checks,
- a spread exceeds its bound (``setup_s`` is exempt: it is gated on its
  median only),
- a later set's median is worse than an earlier set's by more than the bound,
- a per-layer count that must repeat exactly (``EXACT``) differs between the
  sets' traced runs, or a live run retransmitted (``frames_per_op`` is exact
  only without retransmissions),
- a seed's deterministic counts (events, messages, frames, store digest)
  differ between sets, or from the counts pinned for that seed in
  ``perf/BASELINE.json``.

Every invocation rewrites ``perf/BASELINE.json`` with the medians and spreads
it saw beside each bound (``BENCHMARK.json`` itself holds only names, units,
directions and bounds).  Pinned counts are written when the file has none: after
a change that is meant to move them, delete its ``pinned`` entry and run again.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Any, Dict, List

import run
import inputs
import stats
from workloads.base import same_counts

SEEDS = tuple(range(1, 11))

#: per-layer counts that the same seed must reproduce bit for bit
EXACT = (
    "finalized_online_ratio",
    "meta_bytes_per_op",
    "frames_per_op",
    "sim.control_messages_per_event",
    "sim.piggyback_elements_per_msg.inline-cover",
    "sim.piggyback_elements_per_msg.vector",
    "sim.finalization_delay_events_p50",
    "sim.finalization_delay_events_p99",
    "net.envelope_bytes_per_op",
    "net.control_bytes_per_op",
    "net.control_frames_per_op",
) + tuple(
    f"clocks.{scheme}.max_elements"
    for scheme in ("vector", "vector-sk", "inline-star", "inline-cover", "cluster",
                   "lamport", "plausible", "hlc", "encoded")
)
#: what must be 0 for ``frames_per_op`` to be exact
RESENT = ("net.retransmits", "net.request_timeouts")
BASELINE = run.PERF_DIR / "BASELINE.json"


def one_set(seconds: float) -> Dict[str, Any]:
    """``workload -> {"runs": [untraced results], "traced": result}``."""
    out: Dict[str, Any] = {}
    for name in inputs.WORKLOADS:
        runs = []
        for seed in SEEDS:
            result = run.run_child(name, seed, seconds, 0, "full")
            print(f"  {name} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
            ), flush=True)
            runs.append(result)
        traced = run.run_child(name, SEEDS[0], seconds, 1, "full")
        out[name] = {"runs": runs, "traced": traced}
    return out


def summarize(sets: List[Dict[str, Any]], spec: Dict[str, Any],
              pinned: Dict[str, Any]):
    """``(table rows, failures)`` over every workload x end-to-end metric."""
    rows, failures = [], []
    for name in sets[0]:
        incorrect = sum(
            not r["correct"]
            for s in sets for r in s[name]["runs"] + [s[name]["traced"]]
        )
        if incorrect:
            failures.append(f"{name}: {incorrect} run(s) failed their output checks")
        for metric in spec["end_to_end"]:
            key, bound, better = metric["name"], metric["bound"], metric["better"]
            values = [
                [r["metrics"][key]["value"] for r in s[name]["runs"]] for s in sets
            ]
            medians = [stats.median(v) for v in values]
            spreads = [stats.spread(v) for v in values]
            rows.append((name, key, metric["unit"], medians, spreads, bound))
            if key != "setup_s" and max(spreads) > bound:
                failures.append(
                    f"{name} {key}: spread {max(spreads):.3f} exceeds bound {bound}"
                )
            for (i, first), (j, second) in itertools.combinations(enumerate(medians), 2):
                worse = stats.worsening(first, second, better)
                if worse > bound:
                    failures.append(
                        f"{name} {key}: set {j + 1} is {worse:.3f} worse than "
                        f"set {i + 1} (bound {bound})"
                    )
        traced = [s[name]["traced"]["metrics"] for s in sets]
        for key in RESENT:
            resent = sum(t[key]["value"] for t in traced)
            if resent:
                failures.append(
                    f"{name} {key}: {resent:g}, so frames_per_op is not exact"
                )
        for key in EXACT:
            seen = {t[key]["value"] for t in traced}
            if len(seen) > 1:
                failures.append(f"{name} {key}: not equal across sets: {sorted(seen)}")
        for index, seed in enumerate(SEEDS):
            counts = [s[name]["runs"][index]["exact"] for s in sets]
            if not all(same_counts(counts[0], other) for other in counts[1:]):
                failures.append(f"{name} seed {seed}: counts differ between sets")
            pin = pinned.get(name, {}).get(str(seed))
            if pin is not None and not same_counts(pin, counts[0]):
                failures.append(
                    f"{name} seed {seed}: counts differ from those pinned in "
                    f"BASELINE.json: {pin} != {counts[0]}"
                )
    return rows, failures


def record(rows, failures: List[str], sets, seconds: float,
           pinned: Dict[str, Any]) -> None:
    doc = {
        "note": "written by perf/repeat.py: medians and spreads per set, "
                "beside each bound",
        "host": sets[0][inputs.WORKLOADS[0]]["traced"]["host"],
        "sets": len(sets), "runs_per_set": len(SEEDS), "seconds": seconds,
        "seeds": list(SEEDS),
        "failures": failures,
        "end_to_end": {},
        "per_layer": {
            name: {k: m["value"] for k, m in sets[-1][name]["traced"]["metrics"].items()
                   if m["value"]}
            for name in sets[0]
        },
        "pinned": pinned or {
            name: {str(r["seed"]): r["exact"] for r in sets[0][name]["runs"]}
            for name in sets[0]
        },
    }
    for name, key, unit, medians, spreads, bound in rows:
        doc["end_to_end"].setdefault(name, {})[key] = {
            "unit": unit, "bound": bound, "medians": medians, "spreads": spreads,
        }
    with open(BASELINE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    spec = run.preflight()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sets", type=int, required=True)
    args = parser.parse_args(argv)
    with open(BASELINE) as fh:
        pinned = json.load(fh).get("pinned", {})

    sets = []
    for index in range(args.sets):
        print(f"set {index + 1} of {args.sets}", flush=True)
        sets.append(one_set(spec["run_seconds"]))

    rows, failures = summarize(sets, spec, pinned)
    print(f"{'workload':<16}{'metric':<14}{'unit':<6}{'bound':>6}  median (spread) per set")
    for name, key, unit, medians, spreads, bound in rows:
        cells = "  ".join(f"{m:.5g} ({s:.3f})" for m, s in zip(medians, spreads))
        print(f"{name:<16}{key:<14}{unit:<6}{bound:>6}  {cells}")
    for failure in failures:
        print(f"FAIL {failure}")
    record(rows, failures, sets, spec["run_seconds"], pinned)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
