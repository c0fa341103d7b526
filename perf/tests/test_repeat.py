"""``repeat.summarize`` on made-up sets: what counts as disagreeing."""

import copy

import pytest

import repeat

SPEC = {"end_to_end": [
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}
COUNTS = {"events": 7000, "ops": 320, "frames_sent": 6718}


def one_set(throughputs=None, setup_s=0.1):
    throughputs = throughputs or [100.0 + seed for seed in repeat.SEEDS]
    layer = dict.fromkeys(repeat.EXACT + repeat.RESENT, 0.0)
    layer.update({"frames_per_op": 20.99375, "meta_bytes_per_op": 555.003125})
    return {"kv-live-inline": {
        "runs": [
            {"correct": True, "seed": seed, "exact": dict(COUNTS),
             "metrics": {"throughput": {"value": value},
                         "setup_s": {"value": setup_s}}}
            for seed, value in zip(repeat.SEEDS, throughputs)
        ],
        "traced": {"correct": True,
                   "metrics": {k: {"value": v} for k, v in layer.items()}},
    }}


def failures(sets, pinned=None):
    return repeat.summarize(sets, SPEC, pinned or {})[1]


def test_two_equal_sets_agree_and_rows_carry_median_and_spread():
    rows, failed = repeat.summarize([one_set(), one_set()], SPEC, {})
    assert failed == []
    name, key, unit, medians, spreads, bound = rows[0]
    assert (name, key, unit, bound) == ("kv-live-inline", "throughput", "1/s", 0.25)
    assert medians == [105.5, 105.5]
    assert spreads[0] == pytest.approx(5.5 / 105.5)


@pytest.mark.parametrize("key", ["frames_per_op", "meta_bytes_per_op",
                                 "finalized_online_ratio"])
def test_an_exact_metric_that_differs_between_sets_fails(key):
    second = one_set()
    second["kv-live-inline"]["traced"]["metrics"][key]["value"] += 0.003125
    assert any(key in f and "not equal" in f for f in failures([one_set(), second]))


@pytest.mark.parametrize("key", repeat.RESENT)
def test_a_retransmission_voids_the_frame_count(key):
    second = one_set()
    second["kv-live-inline"]["traced"]["metrics"][key]["value"] = 2.0
    assert any(key in f and "frames_per_op" in f
               for f in failures([one_set(), second]))


def test_counts_are_compared_seed_by_seed_and_against_the_pins():
    second = one_set()
    second["kv-live-inline"]["runs"][3]["exact"]["events"] += 1
    assert failures([one_set(), second]) == [
        "kv-live-inline seed 4: counts differ between sets"
    ]
    # a run that retransmitted could not vouch for its frame count
    unsure = one_set()
    unsure["kv-live-inline"]["runs"][3]["exact"]["frames_sent"] = None
    assert failures([one_set(), unsure]) == []

    pinned = {"kv-live-inline": {"4": dict(COUNTS, frames_sent=6700)}}
    failed = failures([one_set(), one_set()], pinned)
    assert len(failed) == 1 and "seed 4" in failed[0] and "pinned" in failed[0]
    pinned["kv-live-inline"]["4"] = copy.deepcopy(COUNTS)
    assert failures([one_set(), one_set()], pinned) == []


def test_spread_and_set_to_set_drift_are_held_to_the_bound():
    wide = one_set([50.0, 60.0, 80.0, 100.0, 100.0, 100.0, 100.0, 120.0, 140.0, 160.0])
    assert any("spread" in f for f in failures([wide]))
    slow = one_set([70.0 + seed for seed in repeat.SEEDS])
    assert any("set 2 is" in f and "worse than set 1" in f
               for f in failures([one_set(), slow]))
    assert failures([slow, one_set()]) == []
    # set-up time is gated on its median, whatever its spread
    assert any("setup_s: set 2" in f
               for f in failures([one_set(), one_set(setup_s=0.2)]))


def test_a_run_that_failed_its_checks_fails_the_set():
    bad = one_set()
    bad["kv-live-inline"]["runs"][0]["correct"] = False
    assert any("failed their output checks" in f for f in failures([bad]))
