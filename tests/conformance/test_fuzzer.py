"""The differential conformance fuzzer: invariants, detection, shrinking."""

import copy
import json
import pickle
import random
from pathlib import Path

import pytest

import repro.conformance.fuzzer as fuzzer
from repro.clocks.base import INFINITY
from repro.clocks.inline_cover import CoverTimestamp
from repro.clocks.inline_star import StarInlineClock, StarTimestamp
from repro.clocks.lamport import LamportClock, LamportTimestamp
from repro.clocks.replay import TimestampAssignment, replay_one
from repro.clocks.vector import VectorClock
from repro.conformance import (
    INVARIANTS,
    ConformanceReport,
    SchemeSpec,
    all_schemes,
    check_execution,
    fuzz,
    scheme_by_name,
    schemes_for,
    shrink_mismatch,
    star_center_of,
)
from repro.conformance.fuzzer import generate_trial
from repro.conformance.shrinker import shrink_ops
from repro.core import HappenedBeforeOracle
from repro.core.backend import NUMPY_MIN_EVENTS, numpy_available
from repro.core.events import EventId
from repro.core.random_executions import (
    execution_from_ops,
    normalize_ops,
    random_execution,
    random_ops,
)
from repro.faults.models import GilbertElliottLoss
from repro.topology import generators


class TestOpsLayer:
    def test_ops_round_trip_matches_direct_generation(self):
        g = generators.star(5)
        ex_direct = random_execution(
            g, random.Random(7), steps=30, deliver_all=True
        )
        ops = random_ops(g, random.Random(7), steps=30, deliver_all=True)
        ex_ops = execution_from_ops(g, ops)
        assert [str(e.eid) for e in ex_direct.all_events()] == [
            str(e.eid) for e in ex_ops.all_events()
        ]
        assert len(ex_direct.messages) == len(ex_ops.messages)

    def test_normalize_drops_orphaned_receives(self):
        ops = [("send", 0, 0, 1), ("recv", 0), ("recv", 1), ("local", 1)]
        assert normalize_ops(ops) == [
            ("send", 0, 0, 1), ("recv", 0), ("local", 1)
        ]

    def test_normalize_drops_duplicate_receives(self):
        ops = [("send", 0, 0, 1), ("recv", 0), ("recv", 0)]
        assert normalize_ops(ops) == [("send", 0, 0, 1), ("recv", 0)]

    def test_any_subsequence_normalizes_to_valid_execution(self):
        g = generators.random_tree(5, random.Random(3))
        ops = random_ops(g, random.Random(3), steps=40, deliver_all=True)
        rng = random.Random(9)
        for _ in range(20):
            subset = [op for op in ops if rng.random() < 0.6]
            execution_from_ops(g, normalize_ops(subset))  # must not raise

    def test_fault_model_drops_messages(self):
        g = generators.star(4)
        lossy = GilbertElliottLoss(
            p_enter_burst=1.0, p_exit_burst=0.0, loss_burst=1.0
        )
        ops = random_ops(
            g, random.Random(5), steps=40, deliver_all=True, fault=lossy
        )
        ex = execution_from_ops(g, ops)
        # the burst starts immediately and never exits: nothing delivers
        assert ex.undelivered_messages() == list(ex.messages)

    def test_execution_from_ops_rejects_garbage(self):
        g = generators.star(3)
        with pytest.raises(ValueError):
            execution_from_ops(g, [("recv", 0)])
        with pytest.raises(ValueError):
            execution_from_ops(g, [("warp", 1)])
        with pytest.raises(ValueError):
            execution_from_ops(
                g, [("send", 0, 0, 1), ("send", 0, 0, 2)]
            )


class TestRegistry:
    def test_covers_all_nine_schemes(self):
        names = {s.name for s in all_schemes()}
        assert names == {
            "vector", "vector-sk", "lamport", "inline-star", "inline-cover",
            "plausible", "cluster", "hlc", "encoded",
        }

    def test_star_center_detection(self):
        assert star_center_of(generators.star(5)) == 0
        assert star_center_of(generators.star(2)) == 0
        assert star_center_of(generators.cycle(5)) is None
        assert star_center_of(generators.path(4)) is None

    def test_fifo_and_topology_gating(self):
        star_fifo = {s.name for s in schemes_for(generators.star(4), True)}
        assert "vector-sk" in star_fifo and "inline-star" in star_fifo
        cyc = {s.name for s in schemes_for(generators.cycle(4), False)}
        assert "vector-sk" not in cyc and "inline-star" not in cyc
        assert "inline-cover" in cyc


class TestInvariants:
    def test_clean_on_seeded_trials(self):
        report = fuzz(trials=20, seed=0)
        assert report.ok, report.mismatches[:3]
        assert report.trials == 20
        # every invariant family actually ran (backend-differential needs
        # the optional numpy kernel)
        expected = set(INVARIANTS)
        if not numpy_available():
            expected.remove("backend-differential")
        assert set(report.checks) == expected

    def test_the_golden_campaign_checks_every_invariant(self):
        golden = Path(__file__).parent / "golden" / "report_trials200_seed0.jsonl"
        records = map(json.loads, golden.read_text().splitlines())
        (summary,) = [rec for rec in records if rec.get("name") == "summary"]
        assert sorted(summary["attrs"]["checks"]) == sorted(INVARIANTS)

    def test_a_name_outside_the_invariants_is_refused(self):
        with pytest.raises(ValueError, match="unknown invariant 'planted'"):
            ConformanceReport().count("planted")
        with pytest.raises(ValueError, match="unknown invariant 'planted'"):
            fuzzer._mk("planted", "vector", "", generators.star(3), [], True, {})

    def test_trial_generation_is_deterministic(self):
        a = generate_trial(0, 7, ("star", "tree", "random"), 40)
        b = generate_trial(0, 7, ("star", "tree", "random"), 40)
        assert a[1] == b[1] and a[2] == b[2] and a[3] == b[3]
        c = generate_trial(1, 7, ("star", "tree", "random"), 40)
        assert a[1] != c[1] or a[3] != c[3]


def _record_oracles(monkeypatch):
    """``(built, validated)``: the kernel of every oracle the fuzzer
    builds, and ``(scheme, kernel)`` of every ``validate`` it runs."""
    built, validated = [], []

    class Recording(HappenedBeforeOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.backend)

    validate = TimestampAssignment.validate

    def recording(self, oracle=None, events=None):
        validated.append((self.algorithm.name, oracle.backend))
        return validate(self, oracle, events)

    monkeypatch.setattr(fuzzer, "HappenedBeforeOracle", Recording)
    monkeypatch.setattr(TimestampAssignment, "validate", recording)
    return built, validated


@pytest.mark.skipif(not numpy_available(), reason="requires numpy >= 2.0")
class TestBackendReuse:
    """backend-differential reuses the trial's oracle and ``vector`` report
    as its pure side only when that oracle is on the pure kernel."""

    @pytest.mark.parametrize(
        "backend, steps, schemes",
        [("numpy", 40, None), ("auto", NUMPY_MIN_EVENTS, ["vector"])],
        ids=["numpy-pin", "auto-long"],
    )
    def test_a_numpy_trial_still_validates_against_a_pure_oracle(
        self, monkeypatch, backend, steps, schemes
    ):
        graph = generators.star(5)
        ops = random_ops(graph, random.Random(3), steps=steps, deliver_all=True)
        assert backend == "numpy" or len(ops) >= NUMPY_MIN_EVENTS
        built, validated = _record_oracles(monkeypatch)
        report = ConformanceReport()
        specs = None if schemes is None else [scheme_by_name(s) for s in schemes]
        assert check_execution(
            graph, ops, schemes=specs, report=report, backend=backend
        ) == []
        assert report.checks["backend-differential"] == 1
        assert built[0] == "numpy"  # the trial's oracle
        assert built.count("pure") == 1
        assert ("vector", "pure") in validated
        assert ("vector", "numpy") in validated

    def test_a_pure_trial_lends_its_oracle_and_report(self, monkeypatch):
        graph = generators.star(5)
        ops = random_ops(graph, random.Random(3), steps=40, deliver_all=True)
        built, validated = _record_oracles(monkeypatch)
        assert check_execution(graph, ops, backend="auto") == []
        # the trial's, the columnar store's and backend-differential's numpy
        assert built == ["pure", "pure", "numpy"]
        assert validated.count(("vector", "pure")) == 2  # trial, columnar
        assert validated.count(("vector", "numpy")) == 1

    def test_an_auto_trial_replays_vector_twice(self, monkeypatch):
        """Once for the scheme checks, once over the columnar store."""
        replays = 0

        def counting(execution, clock, **kwargs):
            nonlocal replays
            replays += type(clock) is VectorClock
            return replay_one(execution, clock, **kwargs)

        monkeypatch.setattr(fuzzer, "replay_one", counting)
        graph, ops, fifo, _context = generate_trial(
            0, 1, ("star", "tree", "random"), 40
        )
        assert check_execution(graph, ops, fifo=fifo, backend="auto") == []
        assert replays == 2
        # with no ``vector`` scheme to reuse, each differential replays it
        replays = 0
        lamport = [scheme_by_name("lamport")]
        assert check_execution(graph, ops, schemes=lamport) == []
        assert replays == 3


def _overclaiming_spec():
    """lamport's total order presented as if it characterized causality."""
    return SchemeSpec(
        "lamport-as-exact",
        lambda g, _c: LamportClock(g.n_vertices),
        exact=True,
    )


class _DriftingLamport(LamportClock):
    """Timestamps that silently shift after finalization — a monotonicity
    violation the streaming invariant must catch."""

    name = "drifting-lamport"

    def __init__(self, n):
        super().__init__(n)
        self._ticks = 0

    def record_local(self, p, k):
        self._ticks += 1
        return super().record_local(p, k)

    def record_send(self, p, k, peer):
        self._ticks += 1
        return super().record_send(p, k, peer)

    def record_receive(self, p, k, peer, payload):
        self._ticks += 1
        return super().record_receive(p, k, peer, payload)

    def timestamp(self, eid):
        ts = super().timestamp(eid)
        if ts is None:
            return None
        return LamportTimestamp(ts.clock + self._ticks, ts.proc)


class _CopyingStarClock(StarInlineClock):
    """Answers every read with a new stamp equal to the stored one."""

    def timestamp(self, eid):
        ts = super().timestamp(eid)
        return None if ts is None else copy.copy(ts)


class _Forged:
    """Pickles as ``cls(*args)``, whatever *args* are."""

    def __init__(self, cls, args):
        self._reduced = (cls, args)

    def __reduce__(self):
        return self._reduced


class TestDetection:
    """The fuzzer must actually flag broken schemes, not just pass good ones."""

    def _concurrent_ops(self):
        # two concurrent local events: the smallest execution lamport's
        # total order overclaims
        return [("local", 0), ("local", 1)]

    def test_flags_inexact_scheme_presented_as_exact(self):
        g = generators.star(3)
        ops = random_ops(g, random.Random(1), steps=25, deliver_all=True)
        found = check_execution(
            g, ops, schemes=[_overclaiming_spec()]
        )
        assert any(
            mm.invariant == "exact-vs-hb" and mm.scheme == "lamport-as-exact"
            for mm in found
        ), found

    def test_flags_finalization_drift(self):
        g = generators.star(3)
        spec = SchemeSpec(
            "drifting-lamport",
            lambda gr, _c: _DriftingLamport(gr.n_vertices),
            exact=False,
            inline=True,
        )
        ops = random_ops(g, random.Random(2), steps=12, deliver_all=True)
        found = check_execution(g, ops, schemes=[spec])
        assert any(
            mm.invariant == "finalization-monotonic" for mm in found
        ), found

    def test_report_collects_counts(self):
        report = ConformanceReport()
        g = generators.star(3)
        ops = self._concurrent_ops()
        check_execution(g, ops, report=report)
        assert report.events_checked == 2
        assert report.checks["oracle-differential"] == 1
        assert report.checks["store-differential"] == 1

    def test_flags_an_inexact_finalized_prefix(self):
        # lamport's total order finalizes every stamp at once, so only the
        # prefix check can object, and it objects to each overclaimed pair
        g = generators.star(3)
        spec = SchemeSpec(
            "lamport-inline",
            lambda gr, _c: LamportClock(gr.n_vertices),
            exact=False,
            inline=True,
        )
        ops = [("local", 1), ("send", 0, 1, 0), ("local", 2), ("recv", 0)]
        found = check_execution(g, ops, schemes=[spec], backend="pure")
        assert {mm.invariant for mm in found} == {"finalization-monotonic"}
        assert all(
            mm.detail.startswith("prefix ")
            and "finalized prefix claims True" in mm.detail
            for mm in found
        )
        assert [mm.detail for mm in found] == [
            "prefix 2: e1@p1->e1@p2 hb=False but finalized prefix claims True",
            "prefix 2: e1@p2->e2@p1 hb=False but finalized prefix claims True",
            "prefix 3: e1@p1->e1@p2 hb=False but finalized prefix claims True",
            "prefix 3: e1@p2->e1@p0 hb=False but finalized prefix claims True",
            "prefix 3: e1@p2->e2@p1 hb=False but finalized prefix claims True",
        ]

    def test_an_equal_copy_of_a_finalized_stamp_is_not_drift(self):
        g = generators.star(4)
        spec = SchemeSpec(
            "copying-inline-star",
            lambda gr, c: _CopyingStarClock(gr.n_vertices, center=c),
            exact=True,
            inline=True,
        )
        ops = random_ops(g, random.Random(3), steps=30, deliver_all=True)
        clock = spec.build(g, 0)
        replay_one(execution_from_ops(g, ops), clock)
        first = clock.timestamp(EventId(0, 1))
        assert first == clock.timestamp(EventId(0, 1))
        assert first is not clock.timestamp(EventId(0, 1))
        report = ConformanceReport()
        assert check_execution(g, ops, schemes=[spec], report=report) == []
        assert report.checks["finalization-monotonic"] == 1

    @pytest.mark.parametrize("ts", [
        CoverTimestamp(0, 2, (2, 1), None, (0, 1)),
        CoverTimestamp(2, 3, (1, 0), (INFINITY, 4), (0, 1)),
        StarTimestamp(0, 2, 2, None, 0),
        StarTimestamp(1, 3, 1, INFINITY, 0),
        StarTimestamp(2, 1, 0, 5, 0),
    ], ids=repr)
    def test_inline_stamps_round_trip(self, ts):
        for twin in (
            pickle.loads(pickle.dumps(ts)), copy.copy(ts), copy.deepcopy(ts)
        ):
            assert type(twin) is type(ts)
            assert twin == ts

    def test_unpickling_checks_the_central_radial_rule(self):
        for args, match in [
            ((0, 2, 1, None, 0), "central event must have pre == ctr"),
            ((0, 2, 2, 3, 0), "must have post=None"),
            ((1, 2, 1, None, 0), "needs a post value"),
        ]:
            with pytest.raises(ValueError, match=match):
                pickle.loads(pickle.dumps(_Forged(StarTimestamp, args)))


class TestShrinker:
    def test_shrinks_overclaim_to_two_events(self):
        g = generators.star(3)
        ops = random_ops(g, random.Random(11), steps=35, deliver_all=True)
        spec = _overclaiming_spec()
        found = check_execution(g, ops, schemes=[spec])
        assert found
        mm = found[0]

        def still_fails(candidate):
            hits = check_execution(g, candidate, schemes=[spec])
            return any(
                (h.invariant, h.scheme) == (mm.invariant, mm.scheme)
                for h in hits
            )

        small = shrink_ops(mm.ops, still_fails)
        assert still_fails(small)
        # minimal counterexample: two concurrent events
        assert len(small) == 2

    def test_shrink_mismatch_reuses_context(self):
        g = generators.star(3)
        ops = random_ops(g, random.Random(11), steps=35, deliver_all=True)
        spec = _overclaiming_spec()
        mm = check_execution(
            g, ops, schemes=[spec], context={"trial": 99}
        )[0]

        def still_fails(candidate):
            return any(
                (h.invariant, h.scheme) == (mm.invariant, mm.scheme)
                for h in check_execution(g, candidate, schemes=[spec])
            )

        small = shrink_ops(mm.ops, still_fails)
        assert len(small) < len(mm.ops)

    def test_shrink_mismatch_keeps_original_when_not_reproducible(self):
        g = generators.star(3)
        ops = random_ops(g, random.Random(11), steps=35, deliver_all=True)
        spec = _overclaiming_spec()
        mm = check_execution(
            g, ops, schemes=[spec], context={"trial": 99}
        )[0]
        # shrink_mismatch re-checks against the *registry* schemes, which
        # do not include the synthetic overclaiming spec — so the failure
        # cannot reproduce and the mismatch must come back untouched
        assert shrink_mismatch(g, mm) is mm

    def test_shrink_is_noop_when_failure_does_not_reproduce(self):
        ops = [("local", 0), ("local", 1)]
        out = shrink_ops(ops, lambda _c: False)
        assert out == ops

    def test_shrink_keeps_send_recv_pairs_consistent(self):
        g = generators.path(4)
        ops = random_ops(g, random.Random(5), steps=30, deliver_all=True)

        # fail whenever any message is actually delivered: forces the
        # shrinker to keep a send+recv pair while deleting everything else
        def needs_delivery(candidate):
            ex = execution_from_ops(g, candidate)
            return any(m.delivered for m in ex.messages)

        small = shrink_ops(ops, needs_delivery)
        assert len(small) == 2
        assert small[0][0] == "send" and small[1][0] == "recv"
