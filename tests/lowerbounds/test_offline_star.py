"""Tests for the Theorem 4.4 reproduction."""

import random

import pytest

from repro.lowerbounds import (
    execution_dimension_exceeds_2,
    find_high_dimension_execution,
    offline_two_element_assignment,
    random_star_execution,
    theorem_4_4_witness,
)


class TestWitness:
    def test_witness_has_dimension_above_2(self):
        assert execution_dimension_exceeds_2(theorem_4_4_witness())

    def test_witness_admits_no_2_element_assignment(self):
        """Theorem 4.4's statement, verified computationally."""
        assert offline_two_element_assignment(theorem_4_4_witness()) is None

    def test_witness_is_a_star_execution(self):
        ex = theorem_4_4_witness()
        assert ex.n_processes == 4
        for msg in ex.messages:
            assert 0 in (msg.src, msg.dst)

    def test_witness_shape(self):
        ex = theorem_4_4_witness()
        assert ex.n_events == 11
        assert len(ex.undelivered_messages()) == 1


class TestConstructiveConverse:
    def test_low_dimension_executions_get_assignments(self):
        """Simple executions (dimension <= 2) DO admit 2-element offline
        vectors — the obstruction is exactly the dimension."""
        from repro.core import ExecutionBuilder, HappenedBeforeOracle
        from repro.topology import generators

        b = ExecutionBuilder(4, graph=generators.star(4))
        m = b.send(1, 0)
        b.receive(0, m)
        m2 = b.send(0, 2)
        b.receive(2, m2)
        ex = b.freeze()
        vecs = offline_two_element_assignment(ex)
        assert vecs is not None
        oracle = HappenedBeforeOracle(ex)
        ids = [ev.eid for ev in ex.all_events()]
        for e in ids:
            for f in ids:
                if e == f:
                    continue
                ve, vf = vecs[e], vecs[f]
                claimed = ve[0] <= vf[0] and ve[1] <= vf[1] and ve != vf
                assert claimed == oracle.happened_before(e, f)


class TestSearch:
    def test_search_finds_witness_quickly(self):
        outcome = find_high_dimension_execution(seed=3, max_trials=500)
        assert outcome.success
        assert outcome.trials < 500
        assert execution_dimension_exceeds_2(outcome.found)

    def test_search_generator_is_star(self):
        ex = random_star_execution(random.Random(0), n=4, steps=15)
        assert ex.n_processes == 4
        for msg in ex.messages:
            assert 0 in (msg.src, msg.dst)

    def test_search_can_fail_gracefully(self):
        outcome = find_high_dimension_execution(seed=0, max_trials=1)
        assert not outcome.success
        assert outcome.found is None
