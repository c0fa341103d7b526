"""Why the inline timestamps need their own comparison operator.

The paper's contribution 1 shows that *standard vector clock comparison*
forces length n even on a star; the inline timestamps escape that bound
only because they are compared differently (Theorems 3.1/4.1).  These
tests document the necessity: treating the inline fields as plain vectors
under the standard comparison breaks characterization, while the proper
operator is exact on the same executions.
"""

import random

import pytest

from repro.clocks import CoverInlineClock, StarInlineClock, replay_one
from repro.clocks.base import vector_lt
from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.core.events import EventId
from repro.core.random_executions import random_execution
from repro.topology import generators


class TestMpreAloneIsNotEnough:
    def test_naive_vector_comparison_orders_concurrent_radials(self):
        """Concurrent events on different radial processes: the standard
        comparison applied to ``(ctr, pre)`` claims an order (false
        positive), while Theorem 3.1's operator correctly reports
        concurrency."""
        g = generators.star(3)
        b = ExecutionBuilder(3, graph=g)
        b.local(1)
        b.local(1)  # e2@p1: (ctr, pre) = (2, 0)
        b.local(2)  # e1@p2: (ctr, pre) = (1, 0)
        ex = b.freeze()
        asg = replay_one(ex, StarInlineClock(3))
        a, b2 = EventId(2, 1), EventId(1, 2)
        ts_a, ts_b = asg[a], asg[b2]
        # naive standard comparison on the counter fields: (1,0) < (2,0)
        assert vector_lt((ts_a.ctr, ts_a.pre), (ts_b.ctr, ts_b.pre))
        # but the events are concurrent, and the real operator knows it
        assert not asg.precedes(a, b2) and not asg.precedes(b2, a)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_standard_comparison_on_mpre_fails_somewhere(self, seed):
        """Across random star executions, mpre-only standard comparison is
        wrong on at least one ordered pair that the proper operator gets
        right (whenever a cross-process ordered pair exists)."""
        g = generators.star(4)
        ex = random_execution(g, random.Random(seed), steps=30,
                              deliver_all=True)
        oracle = HappenedBeforeOracle(ex)
        asg = replay_one(ex, CoverInlineClock(g, (0,)))
        ids = [ev.eid for ev in ex.all_events()]
        mismatch = 0
        cross_ordered = 0
        for e in ids:
            for f in ids:
                if e == f or e.proc == f.proc:
                    continue
                hb = oracle.happened_before(e, f)
                if hb:
                    cross_ordered += 1
                naive = vector_lt(asg[e].mpre, asg[f].mpre)
                if naive != hb:
                    mismatch += 1
                # the proper operator is always right
                assert asg.precedes(e, f) == hb
        if cross_ordered:
            assert mismatch > 0, (
                "mpre-only comparison accidentally exact; "
                "pick a different seed"
            )


class TestDisconnectedGraphs:
    def test_cover_clock_on_disconnected_topology(self):
        from repro.topology.graph import CommunicationGraph

        # two components: a star {0,1,2} and an edge {3,4}, plus isolated 5
        g = CommunicationGraph(6, [(0, 1), (0, 2), (3, 4)])
        ex = random_execution(g, random.Random(5), steps=40,
                              deliver_all=True)
        asg = replay_one(ex, CoverInlineClock(g))
        assert asg.validate().characterizes
        assert asg.max_elements() <= 2 * 2 + 2  # cover {0, 3-or-4}
