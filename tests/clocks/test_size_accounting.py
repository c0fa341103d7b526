"""The O(1) size accounting agrees with the definitions it shortcuts.

``Timestamp.n_elements`` is ``len(elements())``, ``payload_elements`` is the
scalar-leaf count of the payload, and ``timestamp_bits`` is the Theorem 4.3
formula with ``ceil(log2 …)`` widths; the schemes that know their own width
answer without building a tuple, recursing or taking a logarithm.  Checked
for every registered scheme on the payloads a simulation actually carries.
"""

import math

import pytest

from repro.clocks.base import _count_elements, counter_bits, id_bits
from repro.conformance.registry import schemes_for
from repro.sim import ControlTransport, Simulation, UniformWorkload
from repro.topology import generators

GRAPH = generators.star(7)
SCHEMES = schemes_for(GRAPH, fifo=True)


def formula_bits(spec_name, algo, ts, max_events):
    """``timestamp_bits`` as it was written before the bit-length shortcut."""
    counter = max(1, math.ceil(math.log2(max_events + 1)))
    if spec_name == "encoded":  # its own cost model, not a formula
        return max(1, ts.bit_length)
    if spec_name in ("inline-star", "inline-cover"):
        ident = max(1, math.ceil(math.log2(algo.n_processes)))
        return ident + (len(ts.elements()) - 1) * counter
    return len(ts.elements()) * counter


def test_every_registered_scheme_runs_on_the_star():
    assert len(SCHEMES) == 9


@pytest.mark.parametrize(
    "transport", [ControlTransport.EAGER, ControlTransport.PIGGYBACK]
)
@pytest.mark.parametrize("spec", SCHEMES, ids=lambda spec: spec.name)
def test_shortcuts_match_definitions(spec, transport):
    algo = spec.build(GRAPH, 0)
    counted = []
    shortcut = algo.payload_elements

    def checked(payload):
        counted.append(payload)
        assert shortcut(payload) == _count_elements(payload)
        return shortcut(payload)

    algo.payload_elements = checked
    res = Simulation(
        GRAPH,
        seed=11,
        clocks={spec.name: algo},
        control_transport=transport,
        fifo_app_channels=True,
    ).run(UniformWorkload(events_per_process=25))
    assert len(counted) >= len(res.execution.messages) > 0
    if spec.inline:  # control payloads went through the same check
        assert len(counted) > len(res.execution.messages)
    assignment = res.assignments[spec.name]
    assert len(assignment) == res.execution.n_events
    for _eid, ts in assignment.items():
        assert ts.n_elements == len(ts.elements())
        for max_events in (1, 7, 8, 1000):
            assert algo.timestamp_bits(ts, max_events) == formula_bits(
                spec.name, algo, ts, max_events
            )


def test_bit_widths_are_the_ceil_log2_formulas():
    for k in list(range(0, 130)) + [2**20 - 1, 2**20, 2**20 + 1]:
        assert counter_bits(k) == max(1, math.ceil(math.log2(k + 1)))
    for n in list(range(1, 130)) + [2**20 - 1, 2**20, 2**20 + 1]:
        assert id_bits(n) == max(1, math.ceil(math.log2(n)))
