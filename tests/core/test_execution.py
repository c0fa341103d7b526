"""Unit tests for ExecutionBuilder / Execution."""

import pytest

from repro.core.colstore import EventStore
from repro.core.events import EventId, EventKind
from repro.core.execution import ExecutionBuilder, ExecutionError
from repro.topology import generators


class TestBuilderValidation:
    def test_needs_a_process(self):
        with pytest.raises(ExecutionError):
            ExecutionBuilder(0)

    def test_graph_size_must_match(self):
        with pytest.raises(ExecutionError):
            ExecutionBuilder(3, graph=generators.star(4))

    def test_rejects_self_message(self):
        b = ExecutionBuilder(2)
        with pytest.raises(ExecutionError):
            b.send(0, 0)

    def test_rejects_out_of_range_destination(self):
        b = ExecutionBuilder(2)
        with pytest.raises(ExecutionError):
            b.send(0, 5)

    def test_rejects_out_of_range_process(self):
        b = ExecutionBuilder(2)
        with pytest.raises(ExecutionError):
            b.local(2)

    def test_rejects_non_edge_send(self):
        b = ExecutionBuilder(4, graph=generators.star(4))
        with pytest.raises(ExecutionError):
            b.send(1, 2)  # radial to radial

    def test_rejects_unknown_message(self):
        b = ExecutionBuilder(2)
        with pytest.raises(ExecutionError):
            b.receive(1, 0)

    def test_rejects_wrong_recipient(self):
        b = ExecutionBuilder(3)
        m = b.send(0, 1)
        with pytest.raises(ExecutionError):
            b.receive(2, m)

    def test_rejects_double_delivery(self):
        b = ExecutionBuilder(2)
        m = b.send(0, 1)
        b.receive(1, m)
        with pytest.raises(ExecutionError):
            b.receive(1, m)

    @pytest.mark.parametrize("proc", [True, False, 1.0, "1", None])
    def test_rejects_a_process_that_is_no_int(self, proc):
        b = ExecutionBuilder(3)
        m = b.send(0, 1)
        with pytest.raises(ExecutionError, match="is not an int process id"):
            b.local(proc)
        with pytest.raises(ExecutionError, match="is not an int process id"):
            b.send(0 if proc != 0 else 2, proc)
        with pytest.raises(ExecutionError, match="is not an int process id"):
            b.send(proc, 2)
        if proc == 1:  # addressed right, but not by an int
            with pytest.raises(ExecutionError, match="is not an int process id"):
                b.receive(proc, m)
        ex = b.freeze()
        assert ex.n_events == 1 and not ex.messages[0].delivered

    @pytest.mark.parametrize("msg_id", [True, 0.0])
    def test_rejects_a_message_id_that_is_no_int(self, msg_id):
        b = ExecutionBuilder(2)
        b.send(0, 1)
        with pytest.raises(ExecutionError, match="unknown message id"):
            b.receive(1, msg_id)

    def test_frozen_builder_rejects_everything(self):
        b = ExecutionBuilder(2)
        b.freeze()
        with pytest.raises(ExecutionError):
            b.local(0)
        with pytest.raises(ExecutionError):
            b.freeze()


class TestExecutionStructure:
    def test_event_indices_are_consecutive(self):
        b = ExecutionBuilder(2)
        b.local(0)
        m = b.send(0, 1)
        b.receive(1, m)
        ex = b.freeze()
        assert [e.index for e in ex.events_at(0)] == [1, 2]
        assert [e.index for e in ex.events_at(1)] == [1]

    def test_counts(self, small_star_execution):
        ex = small_star_execution
        assert ex.n_processes == 4
        assert ex.n_events == 10
        assert len(ex.messages) == 4
        assert ex.max_events_per_process() == 4  # p0 has 4 events

    def test_event_lookup(self, small_star_execution):
        ex = small_star_execution
        eid = EventId(0, 1)
        assert eid in ex
        assert ex.event(eid).kind is EventKind.RECEIVE

    def test_send_receive_matching(self, small_star_execution):
        ex = small_star_execution
        for msg in ex.messages:
            send = ex.event(msg.send_event)
            recv = ex.event(msg.recv_event)
            assert recv.msg_id == send.msg_id == msg.msg_id
            assert ex.send_of(recv) is send

    def test_send_of_rejects_non_receive(self, small_star_execution):
        ex = small_star_execution
        local = ex.event(EventId(3, 1))
        with pytest.raises(ValueError):
            ex.send_of(local)

    def test_undelivered_messages(self):
        b = ExecutionBuilder(2)
        b.send(0, 1)
        ex = b.freeze()
        assert len(ex.undelivered_messages()) == 1

    def test_last_event(self):
        b = ExecutionBuilder(2)
        with pytest.raises(ExecutionError):
            b.last_event(0)
        b.local(0)
        assert b.last_event(0).eid == EventId(0, 1)


def _with_undelivered():
    """p0 sends m0 to p1 and m1 to p2; only m0 arrives.  Three processes,
    p0 with 2 events, p1 with 2, p2 with none."""
    b = ExecutionBuilder(3)
    m0 = b.send(0, 1)
    b.send(0, 2)
    b.receive(1, m0)
    b.local(1)
    return b.freeze()


@pytest.fixture(params=["object", "columnar"])
def flavour(request):
    """The execution as built, or its columnar re-encoding: both must
    answer every lookup the same way."""
    if request.param == "object":
        return lambda ex: ex
    return lambda ex: EventStore.from_execution(ex).freeze()


class TestPositionalLookup:
    """An event is found by its position: ``(p, k)`` is the *k*-th event of
    process *p*.  Nothing about the answers depends on how."""

    def test_own_ids(self, flavour):
        ex = flavour(_with_undelivered())
        assert len(ex) == ex.n_events == 4
        for p in range(ex.n_processes):
            for k, ev in enumerate(ex.events_at(p), start=1):
                eid = EventId(p, k)
                assert eid in ex
                assert ex.event(eid) == ev
                assert ex.event(eid).eid == eid

    def test_proc_out_of_range(self, flavour):
        ex = flavour(_with_undelivered())
        for eid in (EventId(3, 1), EventId(99, 1)):
            assert eid not in ex
            with pytest.raises(KeyError):
                ex.event(eid)

    def test_index_past_the_last_event(self, flavour):
        ex = flavour(_with_undelivered())
        # p0 and p1 have two events, p2 none
        for eid in (EventId(0, 3), EventId(1, 3), EventId(2, 1)):
            assert eid not in ex
            with pytest.raises(KeyError):
                ex.event(eid)

    def test_send_and_receive_of(self, flavour):
        ex = flavour(_with_undelivered())
        delivered, undelivered = ex.events_at(0)
        recv = ex.event(EventId(1, 1))
        assert ex.send_of(recv) == delivered
        assert ex.messages[delivered.msg_id].recv_event == recv.eid
        assert not ex.messages[undelivered.msg_id].delivered
        with pytest.raises(ValueError):
            ex.send_of(ex.event(EventId(1, 2)))

    def test_a_key_that_is_no_event_id(self, flavour):
        ex = flavour(_with_undelivered())
        for key in ((0, 1), "e1@p0", None):
            assert key not in ex
            with pytest.raises(KeyError):
                ex.event(key)


class TestDeliveryOrder:
    def test_respects_causality(self, small_star_execution):
        ex = small_star_execution
        order = ex.delivery_order()
        assert len(order) == ex.n_events
        pos = {ev.eid: i for i, ev in enumerate(order)}
        # receives after sends
        for msg in ex.messages:
            if msg.recv_event is not None:
                assert pos[msg.send_event] < pos[msg.recv_event]
        # process order preserved
        for p in range(ex.n_processes):
            evts = ex.events_at(p)
            for a, b in zip(evts, evts[1:]):
                assert pos[a.eid] < pos[b.eid]

    def test_emits_all_events_exactly_once(self, small_star_execution):
        order = small_star_execution.delivery_order()
        assert len({ev.eid for ev in order}) == len(order)

    def test_repr(self, small_star_execution):
        assert "Execution(" in repr(small_star_execution)
