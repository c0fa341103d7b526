"""Conformance cells are refused when no trial in them could run.

A negative step bound or an empty topology list used to build cells that
failed only after a worker had leased and retried them.
"""

import pytest

from repro.fabric.drivers import conformance_chunk_specs


@pytest.mark.parametrize("topologies, max_steps, match", [
    ([], -4, "max_steps must be >= 0"),
    ([], 10, "at least one family"),
    (["star", "grid"], 10, "unknown topology kind 'grid'"),
    (["star"], -1, "max_steps must be >= 0, got -1"),
])
def test_no_cell_for_a_campaign_no_trial_can_run(topologies, max_steps, match):
    with pytest.raises(ValueError, match=match):
        conformance_chunk_specs(3, 0, topologies, max_steps, "auto")


def test_zero_steps_still_shards():
    specs = conformance_chunk_specs(3, 0, ["tree"], 0, "auto")
    assert [(s["lo"], s["hi"], s["max_steps"]) for s in specs] == [(0, 3, 0)]
