"""Byte-identity of the columnar event store against the object pipeline.

Two families of properties, on arbitrary (including faulted) executions:

- **storage parity** — replaying one op list through the object
  :class:`~repro.core.execution.ExecutionBuilder` and the columnar
  :class:`~repro.core.colstore.ColumnarExecutionBuilder` yields the same
  execution (event ids, kinds, message fates), and
  :meth:`EventStore.from_execution` records the object execution
  column-for-column identically to the live columnar build;
- **feed parity** — per-event ``append_*`` calls, a whole-range
  :meth:`~repro.core.incremental.IncrementalHBOracle.sync_store` drain
  and a chunked ``upto=`` drain all freeze to byte-identical snapshots
  with identical ``oracle.*`` metric totals, matching the from-scratch
  batch oracle.

These are the property-based teeth behind the conformance fuzzer's
``store-differential`` invariant.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HappenedBeforeOracle
from repro.core.backend import numpy_available, use_backend
from repro.core.colstore import (
    KIND_RECEIVE,
    ColumnarExecutionBuilder,
    EventStore,
)
from repro.core.events import EventId
from repro.core.incremental import IncrementalHBOracle
from repro.core.random_executions import execution_from_ops, random_ops
from repro.faults.models import GilbertElliottLoss
from repro.obs.metrics import MetricsRegistry
from repro.topology import generators
from tests.helpers import reference_past_masks

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="requires numpy >= 2.0"
)

def _graph(seed: int):
    kind = seed % 3
    if kind == 0:
        return generators.star(2 + seed % 6)
    if kind == 1:
        return generators.random_tree(3 + seed % 5, random.Random(seed))
    return generators.cycle(3 + seed % 4)


def _ops(graph, seed: int):
    # every fourth example runs under a bursty-loss fault schedule so
    # undelivered messages exercise the store's fate columns
    fault = (
        GilbertElliottLoss(
            p_enter_burst=0.25, p_exit_burst=0.3, loss_burst=0.9
        )
        if seed % 4 == 0
        else None
    )
    return random_ops(
        graph, random.Random(seed), steps=30 + seed % 60,
        deliver_all=(seed % 2 == 0), fault=fault,
    )


def _feed_per_event(oracle, store):
    for row in range(store.n_events):
        eid = store.event_id(row)
        if store.kind_of(row) == KIND_RECEIVE:
            oracle.append_receive(
                eid, store.event_id(store.send_row_of(store.msg_of(row)))
            )
        else:
            oracle.append_local(eid)
    return oracle


class TestStorageParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_columnar_build_matches_object_build(self, seed):
        graph = _graph(seed)
        ops = _ops(graph, seed)
        ex_obj = execution_from_ops(graph, ops)
        ex_col = execution_from_ops(
            graph, ops,
            builder=ColumnarExecutionBuilder(graph.n_vertices, graph),
        )
        assert ex_col.n_events == ex_obj.n_events
        obj_events = list(ex_obj.all_events())
        col_events = list(ex_col.all_events())
        assert [str(e.eid) for e in col_events] == [
            str(e.eid) for e in obj_events
        ]
        assert [e.kind for e in col_events] == [e.kind for e in obj_events]
        assert [str(e.eid) for e in ex_col.delivery_order()] == [
            str(e.eid) for e in ex_obj.delivery_order()
        ]
        assert len(ex_col.undelivered_messages()) == len(
            ex_obj.undelivered_messages()
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_from_execution_matches_live_columnar_build(self, seed):
        # row order may legitimately differ (from_execution records in
        # all_events() order, the live build in op order — both are
        # causally consistent), so compare keyed by event id
        graph = _graph(seed)
        ops = _ops(graph, seed)
        ex_obj = execution_from_ops(graph, ops)
        live = execution_from_ops(
            graph, ops,
            builder=ColumnarExecutionBuilder(graph.n_vertices, graph),
        ).store
        recorded = EventStore.from_execution(ex_obj)
        assert recorded.n_events == live.n_events

        def shape(store):
            events = {
                str(store.event_id(r)): store.kind_of(r)
                for r in range(store.n_events)
            }
            msgs = sorted(
                (str(m.send_event), str(m.recv_event) if m.delivered else None)
                for m in store.messages()
            )
            return events, msgs

        assert shape(recorded) == shape(live)


class TestAppendPathParity:
    """One append engine, three ways to feed it — and ``batch=True``,
    which the benchmark harness still passes, must change none of them."""

    FEEDS = ("per_event", "sync", "chunked")

    def _feed(self, feed, oracle, store):
        if feed == "per_event":
            _feed_per_event(oracle, store)
        elif feed == "sync":
            oracle.sync_store(store)
        else:
            upto = 0
            while upto < store.n_events:
                upto = min(upto + 7, store.n_events)
                oracle.sync_store(store, upto=upto)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_feeds_byte_identical(self, seed):
        graph = _graph(seed)
        ex = execution_from_ops(graph, _ops(graph, seed))
        store = EventStore.from_execution(ex)
        ref = HappenedBeforeOracle(ex, backend="pure")
        ref_masks = reference_past_masks(ex)
        totals = set()
        for feed in self.FEEDS:
            for batch in (False, True):
                reg = MetricsRegistry()
                oracle = IncrementalHBOracle(
                    graph.n_vertices, registry=reg, batch=batch
                )
                self._feed(feed, oracle, store)
                name = (feed, batch)
                frozen = oracle.freeze(ex)
                assert frozen.past_masks() == ref_masks, name
                assert oracle.relation_counts() == ref.relation_counts(), name
                totals.add((
                    reg.counter_value("oracle.appends"),
                    reg.counter_value("oracle.append_words"),
                ))
        # one clock of n entries written per append, whatever the feed
        assert totals == {
            (store.n_events, graph.n_vertices * store.n_events)
        }

    @needs_numpy
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_numpy_freeze_target_matches(self, seed):
        graph = _graph(seed)
        ops = _ops(graph, seed)
        ex = execution_from_ops(graph, ops)
        store = EventStore.from_execution(ex)
        oracle = IncrementalHBOracle(graph.n_vertices)
        oracle.sync_store(store)
        with use_backend("numpy"):
            frozen = oracle.freeze(ex)
        from repro.core.npkernel import rows_to_matrix

        ref = reference_past_masks(ex)
        assert frozen.backend == "numpy"
        assert frozen.past_masks() == ref
        assert (frozen.past_matrix() == rows_to_matrix(ref)).all()


class TestSyncStoreContract:
    def _store(self, seed=3, steps=40):
        graph = generators.star(4)
        ex = execution_from_ops(
            graph, random_ops(graph, random.Random(seed), steps=steps,
                              deliver_all=True)
        )
        return graph, ex, EventStore.from_execution(ex)

    def test_bind_on_default_oracle_drains_and_answers(self):
        # regression: this used to accept bind_store and then raise
        # "sync_store requires a batch=True oracle" from every query
        store = EventStore(2)
        oracle = IncrementalHBOracle(2)
        oracle.bind_store(store)
        msg = store.append_send(0, 1)
        store.append_local(0)
        store.append_receive(1, msg)
        send, local, recv = (store.event_id(r) for r in range(3))
        ref = HappenedBeforeOracle(store.freeze())
        assert oracle.happened_before(send, recv)
        assert not oracle.happened_before(local, recv)
        assert oracle.n_events == 3
        assert oracle.causal_past(recv) == ref.causal_past(recv) == {send}
        assert oracle.relation_counts() == ref.relation_counts()
        # the store keeps growing; the next query drains the new row
        store.append_local(1)
        last = store.event_id(3)
        ref = HappenedBeforeOracle(store.freeze())
        assert oracle.vector_clock(last) == ref.vector_clock(last)
        assert oracle.freeze(store.freeze()).past_masks() == ref.past_masks()

    def test_counts_drain_a_bound_store(self):
        # regression: the counts read only the rows already drained, while
        # every query drained first
        _graph_, ex, store = self._store()
        oracle = IncrementalHBOracle(4)
        oracle.bind_store(store)
        for p in range(4):
            assert oracle.event_count(p) == store.count_at(p)
        assert oracle.n_events == store.n_events
        assert store.event_id(store.n_events - 1) in oracle
        assert EventId(0, store.count_at(0) + 1) not in oracle

    def test_rejects_process_count_mismatch(self):
        _graph_, _ex, store = self._store()
        oracle = IncrementalHBOracle(7)
        with pytest.raises(ValueError):
            oracle.sync_store(store)

    def test_rejects_second_store(self):
        _graph_, _ex, store = self._store()
        _graph2, _ex2, other = self._store(seed=9)
        oracle = IncrementalHBOracle(4)
        oracle.sync_store(store)
        with pytest.raises(ValueError):
            oracle.sync_store(other)

    def test_upto_is_incremental_and_idempotent(self):
        _graph_, ex, store = self._store()
        oracle = IncrementalHBOracle(4)
        half = store.n_events // 2
        assert oracle.sync_store(store, upto=half) == half
        assert oracle.sync_store(store, upto=half) == 0
        assert oracle.sync_store(store) == store.n_events - half
        assert oracle.sync_store(store) == 0
        assert oracle.freeze(ex).past_masks() == reference_past_masks(ex)

    def test_rejects_rows_that_do_not_continue_sequences(self):
        _graph_, _ex, store = self._store()
        oracle = IncrementalHBOracle(4)
        # pre-consume one event per process manually: the store's rows no
        # longer continue the oracle's per-process sequences
        oracle.append_local(store.event_id(0))
        with pytest.raises(ValueError):
            oracle.sync_store(store)

    def test_bind_store_drains_on_flush(self):
        _graph_, ex, store = self._store()
        oracle = IncrementalHBOracle(4)
        oracle.bind_store(store)
        oracle.flush()
        assert oracle.freeze(ex).past_masks() == reference_past_masks(ex)


class TestPureFallback:
    """The store pipeline must work end to end with numpy unavailable."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sync_store_pure_engine(self, seed):
        graph = _graph(seed)
        ops = _ops(graph, seed)
        ex = execution_from_ops(graph, ops)
        store = EventStore.from_execution(ex)
        oracle = IncrementalHBOracle(graph.n_vertices)
        oracle.sync_store(store)
        assert oracle.freeze(ex).past_masks() == reference_past_masks(ex)
