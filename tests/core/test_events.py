"""Unit tests for the event/message value objects."""

import copy
import dataclasses
import pickle

import pytest

from repro.clocks.vector import VectorTimestamp
from repro.core.events import Event, EventId, EventKind, Message


class TestEventId:
    def test_fields(self):
        eid = EventId(2, 5)
        assert eid.proc == 2
        assert eid.index == 5

    def test_str(self):
        assert str(EventId(3, 1)) == "e1@p3"

    def test_rejects_negative_process(self):
        with pytest.raises(ValueError):
            EventId(-1, 1)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            EventId(0, 0)

    def test_ordering_is_deterministic(self):
        ids = [EventId(1, 2), EventId(0, 9), EventId(1, 1)]
        assert sorted(ids) == [EventId(0, 9), EventId(1, 1), EventId(1, 2)]

    def test_hashable_and_equal(self):
        assert EventId(1, 1) == EventId(1, 1)
        assert len({EventId(1, 1), EventId(1, 1), EventId(1, 2)}) == 2

    @pytest.mark.parametrize(
        "proc, index",
        [(True, 1), (False, 1), (0, True), (1.0, 1), (0, 1.0), (0, "1")],
    )
    def test_rejects_a_field_that_is_no_int(self, proc, index):
        with pytest.raises(TypeError, match="must be int"):
            EventId(proc, index)

    def test_is_no_tuple(self):
        assert EventId(0, 1) != (0, 1)
        assert (0, 1) != EventId(0, 1)


class TestEvent:
    def test_local_event(self):
        ev = Event(EventId(0, 1), EventKind.LOCAL)
        assert ev.is_local and not ev.is_send and not ev.is_receive
        assert ev.proc == 0 and ev.index == 1

    def test_send_event(self):
        ev = Event(EventId(0, 1), EventKind.SEND, msg_id=7, peer=3)
        assert ev.is_send
        assert ev.msg_id == 7
        assert ev.peer == 3

    def test_receive_event(self):
        ev = Event(EventId(2, 4), EventKind.RECEIVE, msg_id=0, peer=0)
        assert ev.is_receive

    def test_local_event_rejects_message(self):
        with pytest.raises(ValueError):
            Event(EventId(0, 1), EventKind.LOCAL, msg_id=1, peer=2)

    def test_send_requires_message(self):
        with pytest.raises(ValueError):
            Event(EventId(0, 1), EventKind.SEND)

    def test_peer_must_differ(self):
        with pytest.raises(ValueError):
            Event(EventId(0, 1), EventKind.SEND, msg_id=0, peer=0)

    def test_str_representation(self):
        ev = Event(EventId(1, 2), EventKind.SEND, msg_id=3, peer=0)
        assert "e2@p1" in str(ev)
        assert "m3" in str(ev)


class TestMessage:
    def test_basic(self):
        m = Message(0, src=1, dst=2, send_event=EventId(1, 1))
        assert not m.delivered
        assert m.recv_event is None

    def test_self_message_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, 1, EventId(1, 1))

    def test_send_event_must_be_at_source(self):
        with pytest.raises(ValueError):
            Message(0, 1, 2, EventId(2, 1))

    def test_recv_event_must_be_at_destination(self):
        with pytest.raises(ValueError):
            Message(0, 1, 2, EventId(1, 1), recv_event=EventId(1, 2))


class TestSlots:
    """Hot-path value objects carry no per-instance __dict__."""

    def test_event_records_use_slots(self):
        from repro.core.events import Event, EventId, EventKind, Message

        eid = EventId(proc=0, index=1)
        assert not hasattr(eid, "__dict__")
        ev = Event(eid=eid, kind=EventKind.LOCAL)
        assert not hasattr(ev, "__dict__")

    def test_timestamps_use_slots(self):
        from repro.baselines.cluster import ClusterTimestamp
        from repro.baselines.hlc import HLCTimestamp
        from repro.baselines.plausible import PlausibleTimestamp
        from repro.clocks.inline_cover import CoverTimestamp
        from repro.clocks.inline_star import StarTimestamp
        from repro.clocks.lamport import LamportTimestamp
        from repro.clocks.vector import VectorTimestamp

        samples = [
            VectorTimestamp((1, 0)),
            LamportTimestamp(3, 0),
            StarTimestamp(id=1, ctr=1, pre=0, post=2, center=0),
            CoverTimestamp(id=1, mctr=1, mpre=(0,), mpost=(2,), cover=(0,)),
            HLCTimestamp(1.0, 0, 0),
            PlausibleTimestamp((1,), 0),
            ClusterTimestamp(0, (1,), None, (1, 0)),
        ]
        for ts in samples:
            assert not hasattr(ts, "__dict__"), type(ts).__name__


#: every refusal the constructors make, with the parent's exception type
#: and message: ``(cls, args, kwargs, exception, message)``
REFUSALS = [
    (EventId, (-1, 1), {}, ValueError, "process id must be >= 0, got -1"),
    (EventId, (0, 0), {}, ValueError, "event index must be >= 1, got 0"),
    (
        Event, (EventId(0, 1), EventKind.LOCAL), {"msg_id": 1},
        ValueError, "local events carry no message",
    ),
    (
        Event, (EventId(0, 1), EventKind.LOCAL), {"peer": 2},
        ValueError, "local events carry no message",
    ),
    (
        Event, (EventId(0, 1), EventKind.SEND), {"msg_id": 1},
        ValueError, "send events need msg_id and peer",
    ),
    (
        Event, (EventId(0, 1), EventKind.RECEIVE), {"peer": 1},
        ValueError, "receive events need msg_id and peer",
    ),
    (
        Event, (EventId(0, 1), EventKind.SEND, 0, 0), {},
        ValueError, "peer must differ from the event's process",
    ),
    (
        Message, (0, 1, 1, EventId(1, 1)), {},
        ValueError, "self-messages are not part of the model",
    ),
    (
        Message, (0, 1, 2, EventId(2, 1)), {},
        ValueError, "send event must occur at the source process",
    ),
    (
        Message, (0, 1, 2, EventId(1, 1)), {"recv_event": EventId(1, 2)},
        ValueError, "receive event must occur at the destination",
    ),
]

#: constructor arguments of one or two instances of each class
SAMPLES = [
    (EventId, (2, 5)),
    (Event, (EventId(1, 2), EventKind.SEND, 3, 0)),
    (Event, (EventId(1, 3), EventKind.LOCAL)),
    (Message, (4, 1, 2, EventId(1, 2), EventId(2, 7))),
    (Message, (4, 1, 2, EventId(1, 2))),
    (VectorTimestamp, ((1, 0, 2),)),
]


def _ids(samples):
    return [f"{cls.__name__}{args}" for cls, args, *_ in samples]


class TestConstructionContract:
    """Each value class is built by its own ``__init__``; everything else
    about it is still the frozen dataclass's."""

    @pytest.mark.parametrize("cls", [EventId, Event, Message, VectorTimestamp])
    def test_no_post_init(self, cls):
        assert not hasattr(cls, "__post_init__")

    @pytest.mark.parametrize(
        "cls, args, kwargs, exc, message", REFUSALS, ids=_ids(REFUSALS)
    )
    def test_every_refusal(self, cls, args, kwargs, exc, message):
        with pytest.raises(exc) as info:
            cls(*args, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("cls, args", SAMPLES, ids=_ids(SAMPLES))
    def test_equal_and_hashed_by_fields(self, cls, args):
        obj, twin = cls(*args), cls(*args)
        assert obj == twin and obj is not twin
        assert hash(obj) == hash(twin)
        assert obj == cls(**{f.name: getattr(obj, f.name)
                             for f in dataclasses.fields(cls)})
        assert repr(obj).startswith(f"{cls.__name__}(")
        assert cls.__match_args__ == tuple(
            f.name for f in dataclasses.fields(cls)
        )

    @pytest.mark.parametrize("cls, args", SAMPLES, ids=_ids(SAMPLES))
    def test_copy_pickle_and_replace(self, cls, args):
        obj = cls(*args)
        for clone in (
            copy.copy(obj),
            copy.deepcopy(obj),
            pickle.loads(pickle.dumps(obj)),
            dataclasses.replace(obj),
        ):
            assert clone == obj and type(clone) is cls

    @pytest.mark.parametrize("cls, args", SAMPLES, ids=_ids(SAMPLES))
    def test_frozen(self, cls, args):
        obj = cls(*args)
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)

    def test_replace_runs_the_checks(self):
        eid = EventId(1, 2)
        assert dataclasses.replace(eid, index=3) == EventId(1, 3)
        with pytest.raises(ValueError, match="event index must be >= 1"):
            dataclasses.replace(eid, index=0)
        with pytest.raises(TypeError):
            dataclasses.replace(eid, proc=True)
        send = Event(EventId(0, 1), EventKind.SEND, 0, 1)
        with pytest.raises(ValueError, match="peer must differ"):
            dataclasses.replace(send, peer=0)
        msg = Message(0, 1, 2, EventId(1, 1))
        assert dataclasses.replace(msg, recv_event=EventId(2, 1)) == Message(
            0, 1, 2, EventId(1, 1), EventId(2, 1)
        )
        with pytest.raises(ValueError, match="at the destination"):
            dataclasses.replace(msg, recv_event=EventId(1, 2))

    def test_event_ids_sort_like_their_fields(self):
        pairs = [(1, 2), (0, 9), (1, 1), (0, 1), (2, 1)]
        assert [(e.proc, e.index) for e in sorted(EventId(*p) for p in pairs)] == (
            sorted(pairs)
        )
        assert EventId(0, 9) < EventId(1, 1) <= EventId(1, 1) < EventId(1, 2)
        with pytest.raises(TypeError):
            EventId(0, 1) < (0, 2)
