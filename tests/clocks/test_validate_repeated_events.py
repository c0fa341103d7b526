"""``validate`` and ``validate_pairwise`` refuse an event listed twice.

An event is not concurrent with itself, yet ``events=[e, e]`` used to be
reported as two events forming one concurrent pair that the scheme
characterizes.
"""

import pytest

from repro.clocks import VectorClock, replay_one
from repro.core import HappenedBeforeOracle
from repro.core.events import EventId
from repro.core.random_executions import execution_from_ops
from repro.topology import generators


@pytest.fixture
def run():
    graph = generators.star(3)
    ops = [("local", 0), ("send", 0, 1, 0), ("recv", 0), ("local", 2)]
    execution = execution_from_ops(graph, ops)
    asg = replay_one(execution, VectorClock(graph.n_vertices))
    return asg, HappenedBeforeOracle(execution)


@pytest.mark.parametrize("method", ["validate", "validate_pairwise"])
@pytest.mark.parametrize("events", [
    [EventId(0, 1), EventId(0, 1)],
    [EventId(1, 1), EventId(0, 2), EventId(2, 1), EventId(0, 2)],
])
def test_a_repeated_event_is_refused(run, method, events):
    asg, oracle = run
    with pytest.raises(ValueError, match="more than once"):
        getattr(asg, method)(oracle, events=events)


@pytest.mark.parametrize("method", ["validate", "validate_pairwise"])
def test_distinct_events_still_validate(run, method):
    asg, oracle = run
    events = iter([EventId(2, 1), EventId(0, 1), EventId(1, 1)])
    report = getattr(asg, method)(oracle, events=events)
    assert report.n_events == 3 and report.characterizes
