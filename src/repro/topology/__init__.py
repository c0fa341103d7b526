"""Communication graphs, generators, vertex covers, and structural properties."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "graph": ("CommunicationGraph", "Edge"),
    "generators": ("generators",),
    "vertex_cover": (
        "best_cover", "exact_minimum_cover", "greedy_degree_cover", "matching_cover",
    ),
    "properties": ("adversary_diameter", "lemma_2_4_set_x", "vertex_connectivity"),
}

if TYPE_CHECKING:
    from repro.topology.graph import (
        CommunicationGraph as CommunicationGraph, Edge as Edge,
    )
    from repro.topology import generators as generators
    from repro.topology.vertex_cover import (
        best_cover as best_cover, exact_minimum_cover as exact_minimum_cover,
        greedy_degree_cover as greedy_degree_cover,
        matching_cover as matching_cover,
    )
    from repro.topology.properties import (
        adversary_diameter as adversary_diameter,
        lemma_2_4_set_x as lemma_2_4_set_x,
        vertex_connectivity as vertex_connectivity,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
