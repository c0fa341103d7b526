"""``validate_sampled`` against a test-local reference, pair for pair.

The implementation draws positions with its own two-element selection
(``repro.clocks.replay._sample_pairs``) in place of ``random.sample``, reads
each endpoint's timestamp once from the assignment's table and asks the
oracle and the scheme each direction once.  The reference below is the
obvious version: ``rng.sample(ids, 2)``, four dict lookups, both directions.
The pair stream — the questions the oracle is asked, in order — and the
whole report must be equal, on populations either side of ``sample``'s
21-element pool branch and for a lossy scheme, so the order mismatches are
appended in is covered.  Tier-1 on every CI interpreter: this is what pins
``random.sample``'s draw order.
"""

import random

import pytest

from repro.clocks import LamportClock, VectorClock, replay
from repro.clocks.replay import ValidationReport
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.topology import generators

N_PAIRS = 400


def _execution_of(n_events):
    graph = generators.star(4)
    builder = ExecutionBuilder(4, graph=graph)
    rng = random.Random(n_events)
    left = n_events
    while left:
        if left >= 2 and rng.random() < 0.4:
            src, dst = rng.choice([(0, 1), (2, 0), (0, 3), (3, 0)])
            builder.receive(dst, builder.send(src, dst))
            left -= 2
        else:
            builder.local(rng.randrange(4))
            left -= 1
    return builder.freeze()


def _reference(asg, oracle, n_pairs, seed):
    rng = random.Random(seed)
    ids = [ev.eid for ev in asg.execution.all_events()]
    ts = dict(asg.items())
    pairs, missed, claimed_wrongly, n_ordered = [], [], [], 0
    for _ in range(n_pairs):
        a, b = rng.sample(ids, 2)
        pairs.append((a, b))
        truths = oracle.happened_before(a, b), oracle.happened_before(b, a)
        for (x, y), truth in zip(((a, b), (b, a)), truths):
            claimed = ts[x].precedes(ts[y])
            if truth and not claimed:
                missed.append((x, y))
            elif claimed and not truth:
                claimed_wrongly.append((x, y))
        n_ordered += any(truths)
    return pairs, ValidationReport(
        asg.algorithm.name, len(ids), n_ordered, n_pairs - n_ordered,
        tuple(missed), tuple(claimed_wrongly),
    )


class _Recording(HappenedBeforeOracle):
    def __init__(self, execution):
        super().__init__(execution)
        self.asked = []

    def happened_before(self, e, f):
        self.asked.append((e, f))
        return super().happened_before(e, f)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n_events", [2, 3, 21, 22, 163])
def test_pair_stream_and_report_equal_the_reference(n_events, seed):
    execution = _execution_of(n_events)
    assert execution.n_events == n_events
    for asg in replay(execution, [LamportClock(4), VectorClock(4)]):
        oracle = _Recording(execution)
        report = asg.validate_sampled(oracle, n_pairs=N_PAIRS, seed=seed)
        pairs, want = _reference(
            asg, HappenedBeforeOracle(execution), N_PAIRS, seed
        )
        assert oracle.asked[0::2] == pairs
        assert oracle.asked[1::2] == [(b, a) for a, b in pairs]
        assert report == want
        if asg.algorithm.name == "lamport" and n_events >= 21:
            assert report.false_positives, "a vacuous mismatch-order check"
