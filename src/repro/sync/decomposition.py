"""Edge decomposition into stars and triangles (paper §5, [10, 11]).

Garg & Skawratananond's synchronous timestamps are parameterized by a
partition of the communication graph's *edges* into ``d`` components, each
a star or a triangle; within every component, any two messages share an
endpoint, so synchronous (joint) message events in a component are totally
ordered.  Fewer components means shorter timestamps.

Two decompositions are provided:

- :func:`star_decomposition` — assign every edge to a vertex of a vertex
  cover; one star per cover vertex, so ``d = |VC|``.  (Minimizing the
  number of stars in a pure-star edge partition is exactly minimum vertex
  cover: the star centers must touch every edge.)
- :func:`star_triangle_decomposition` — greedily extract disjoint triangles
  first, then cover the rest with stars.  Triangles can beat stars on dense
  graphs (e.g. K₃ itself: one triangle instead of a 2-star cover).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.topology.graph import CommunicationGraph
from repro.topology.vertex_cover import best_cover

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Component:
    """One component of an edge decomposition."""

    kind: str  # "star" | "triangle"
    #: star: the hub; triangle: unused (-1)
    center: int
    edges: Tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("star", "triangle"):
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.kind == "triangle":
            if len(self.edges) != 3:
                raise ValueError("a triangle component has exactly 3 edges")
            verts = {v for e in self.edges for v in e}
            if len(verts) != 3:
                raise ValueError("triangle edges must span 3 vertices")
        else:
            if not self.edges:
                raise ValueError("empty star component")
            for u, v in self.edges:
                if self.center not in (u, v):
                    raise ValueError("star edges must touch the hub")

    @property
    def vertices(self) -> FrozenSet[int]:
        return frozenset(v for e in self.edges for v in e)

    def contains_edge(self, u: int, v: int) -> bool:
        e = (min(u, v), max(u, v))
        return e in self.edges


@dataclass(frozen=True)
class Decomposition:
    """A validated star/triangle edge partition."""

    graph: CommunicationGraph
    components: Tuple[Component, ...]

    def __post_init__(self) -> None:
        seen: Set[Edge] = set()
        for comp in self.components:
            for e in comp.edges:
                if e in seen:
                    raise ValueError(f"edge {e} appears in two components")
                seen.add(e)
        if seen != set(self.graph.edges):
            raise ValueError("components do not partition the edge set")

    @property
    def d(self) -> int:
        """Number of components — the timestamp length parameter."""
        return len(self.components)

    def component_of_edge(self, u: int, v: int) -> int:
        e = (min(u, v), max(u, v))
        for j, comp in enumerate(self.components):
            if e in comp.edges:
                return j
        raise KeyError(f"edge {e} not in the decomposition")

    def components_of_vertex(self, v: int) -> Tuple[int, ...]:
        """Indices of components with an edge incident to *v*."""
        return tuple(j for j, comp in enumerate(self.components) if v in comp.vertices)


def star_decomposition(
    graph: CommunicationGraph, cover: Optional[Sequence[int]] = None
) -> Decomposition:
    """One star per cover vertex (``d = |VC|``)."""
    if cover is None:
        cover = best_cover(graph)
    cset = list(dict.fromkeys(cover))
    if not graph.is_vertex_cover(cset):
        raise ValueError("supplied centers are not a vertex cover")
    buckets: List[List[Edge]] = [[] for _ in cset]
    pos = {c: i for i, c in enumerate(cset)}
    for u, v in graph.edges:
        if u in pos:
            buckets[pos[u]].append((u, v))
        else:
            buckets[pos[v]].append((u, v))
    components = [
        Component("star", center=c, edges=tuple(bucket))
        for c, bucket in zip(cset, buckets)
        if bucket
    ]
    return Decomposition(graph, tuple(components))


def star_triangle_decomposition(graph: CommunicationGraph) -> Decomposition:
    """Greedy triangles first, stars (via a cover of the rest) after."""
    remaining: Set[Edge] = set(graph.edges)
    triangles: List[Component] = []
    verts = sorted(graph.vertices())
    for a in verts:
        for b in sorted(graph.neighbors(a)):
            if b <= a:
                continue
            for c in sorted(graph.neighbors(a) & graph.neighbors(b)):
                if c <= b:
                    continue
                e1, e2, e3 = (a, b), (a, c), (b, c)
                if e1 in remaining and e2 in remaining and e3 in remaining:
                    remaining -= {e1, e2, e3}
                    triangles.append(
                        Component("triangle", center=-1, edges=(e1, e2, e3))
                    )
    rest = CommunicationGraph(graph.n_vertices, remaining)
    stars = star_decomposition(rest).components if remaining else ()
    return Decomposition(graph, tuple(triangles) + stars)


def best_decomposition(graph: CommunicationGraph) -> Decomposition:
    """The smaller of the pure-star and triangle-greedy decompositions."""
    return min(
        star_decomposition(graph),
        star_triangle_decomposition(graph),
        key=lambda dec: dec.d,
    )
