"""Events reach a clock in index order, for every registered scheme.

A host hands a clock the events of each process in the order they occur:
index 1, 2, 3, ...  The inline schemes always refused anything else
(``event index 5 does not match local counter 1``); the seven online
schemes keyed their timestamps by event id and took whatever came — a gap
left a hole at ``⊥``, a repeated id silently replaced a timestamp that was
already final.  One positional helper records for all seven now, and it
raises the inline schemes' error.
"""

import pytest

from repro.conformance.registry import all_schemes
from repro.core.events import Event, EventId, EventKind
from repro.topology import generators

#: a star: the one shape on which every registered scheme is legal
N = 5
CENTER = 0


def _local(proc, index):
    return Event(EventId(proc, index), EventKind.LOCAL)


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_a_gap_is_refused(spec):
    clock = spec.build(generators.star(N), CENTER)
    with pytest.raises(
        ValueError, match="event index 5 does not match local counter 1"
    ):
        clock.on_local(_local(1, 5))
    assert clock.drain_newly_finalized() == []


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_a_repeat_does_not_replace_a_final_timestamp(spec):
    clock = spec.build(generators.star(N), CENTER)
    # the centre's events are final at once under every scheme
    first = EventId(CENTER, 1)
    clock.on_local(_local(CENTER, 1))
    assert clock.is_final(first)
    stamped = clock.timestamp(first)
    with pytest.raises(
        ValueError, match="event index 1 does not match local counter 2"
    ):
        clock.on_local(_local(CENTER, 1))
    assert clock.timestamp(first) == stamped


@pytest.mark.parametrize("spec", all_schemes(), ids=lambda spec: spec.name)
def test_a_process_outside_the_system_is_refused(spec):
    clock = spec.build(generators.star(N), CENTER)
    with pytest.raises((ValueError, IndexError)):
        clock.on_local(_local(N, 1))
    assert clock.drain_newly_finalized() == []
