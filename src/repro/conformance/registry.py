"""Registry of every clock scheme the conformance fuzzer cross-checks.

One :class:`SchemeSpec` per registered scheme, carrying the metadata the
fuzzer needs to decide *where* a scheme may legally run:

- ``exact`` — whether the scheme claims to characterize happened-before
  (``e -> f  ⟺  ts(e) < ts(f)``) or only the one-sided consistency
  guarantee (``e -> f  ⟹  ts(e) < ts(f)``) of the lossy baselines;
- ``requires_fifo`` — the Singhal–Kshemkalyani differential vectors assume
  *reliable* FIFO application channels, so the spec only applies to FIFO
  executions without message loss (a dropped message would leave a gap in
  the per-channel sequence the differential encoding counts on);
- ``star_only`` — Theorem 3.1's four-element timestamps are defined only on
  star topologies (every message touches the center);
- ``inline`` — whether timestamps start as ``⊥`` and finalize later, which
  is what the finalization-monotonicity invariant checks.

This is the one clock-name table: the CLI's ``--clocks`` and the fabric's
``chaos-scenario`` cells resolve names through :func:`build_clock`, so a new
scheme is one factory and one ``_ALL`` line.  Conformance must cover *every*
scheme, including baselines like HLC that need a deterministic synthetic
time source to be replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.baselines import ClusterClock, EncodedClock, PlausibleClock
from repro.baselines.hlc import HybridLogicalClock, counter_time_source
from repro.clocks import (
    ClockAlgorithm,
    CoverInlineClock,
    LamportClock,
    SKVectorClock,
    StarInlineClock,
    VectorClock,
)
from repro.topology.graph import CommunicationGraph


@dataclass(frozen=True)
class SchemeSpec:
    """A registered clock scheme plus the preconditions it may assume."""

    name: str
    factory: Callable[[CommunicationGraph, int], ClockAlgorithm]
    exact: bool
    requires_fifo: bool = False
    star_only: bool = False
    inline: bool = False

    def build(
        self, graph: CommunicationGraph, star_center: int = 0
    ) -> ClockAlgorithm:
        return self.factory(graph, star_center)


def _vector(g: CommunicationGraph, _c: int) -> ClockAlgorithm:
    return VectorClock(g.n_vertices)


def _vector_sk(g: CommunicationGraph, _c: int) -> ClockAlgorithm:
    return SKVectorClock(g.n_vertices)


def _lamport(g: CommunicationGraph, _c: int) -> ClockAlgorithm:
    return LamportClock(g.n_vertices)


def _inline_star(g: CommunicationGraph, center: int) -> ClockAlgorithm:
    return StarInlineClock(g.n_vertices, center=center)


def _inline_cover(g: CommunicationGraph, _c: int) -> ClockAlgorithm:
    return CoverInlineClock(g)


def _plausible(g: CommunicationGraph, _c: int) -> ClockAlgorithm:
    n = g.n_vertices
    return PlausibleClock(n, max(1, n // 3))


def _cluster(g: CommunicationGraph, _c: int) -> ClockAlgorithm:
    return ClusterClock(g.n_vertices)


def _hlc(g: CommunicationGraph, _c: int) -> ClockAlgorithm:
    # the synthetic counter source makes HLC replay-deterministic
    return HybridLogicalClock(
        g.n_vertices, time_source=counter_time_source()
    )


def _encoded(g: CommunicationGraph, _c: int) -> ClockAlgorithm:
    return EncodedClock(g.n_vertices)


_ALL: Tuple[SchemeSpec, ...] = (
    SchemeSpec("vector", _vector, exact=True),
    SchemeSpec("vector-sk", _vector_sk, exact=True, requires_fifo=True),
    SchemeSpec("lamport", _lamport, exact=False),
    SchemeSpec(
        "inline-star", _inline_star, exact=True, star_only=True, inline=True
    ),
    SchemeSpec("inline-cover", _inline_cover, exact=True, inline=True),
    SchemeSpec("plausible", _plausible, exact=False),
    SchemeSpec("cluster", _cluster, exact=True),
    SchemeSpec("hlc", _hlc, exact=False),
    SchemeSpec("encoded", _encoded, exact=True),
)


def all_schemes() -> Tuple[SchemeSpec, ...]:
    """Every registered scheme, in stable order."""
    return _ALL


#: ``inline`` is the command line's short spelling of ``inline-cover``
ALIASES = {"inline": "inline-cover"}
#: every name :func:`scheme_by_name` accepts
CLOCK_NAMES = tuple(ALIASES) + tuple(spec.name for spec in _ALL)


def scheme_by_name(name: str) -> SchemeSpec:
    name = ALIASES.get(name, name)
    for spec in _ALL:
        if spec.name == name:
            return spec
    raise ValueError(f"unknown clock scheme {name!r}")


#: the names the live transport can host (``repro kv-live --clock``): it
#: retransmits and reorders, and its cluster graph is not a star
LIVE_CLOCKS = tuple(
    name
    for name in CLOCK_NAMES
    if not (scheme_by_name(name).requires_fifo or scheme_by_name(name).star_only)
)


def build_clock(name: str, graph: CommunicationGraph) -> ClockAlgorithm:
    """Construct a scheme by name or alias (``inline-star``: center 0)."""
    return scheme_by_name(name).build(graph)


def star_center_of(graph: CommunicationGraph) -> Optional[int]:
    """The center of *graph* if it is a star, else ``None``.

    A single edge (n=2) is a degenerate star; the lower-numbered endpoint
    is reported as its center.  Isolated vertices disqualify a graph — the
    inline-star scheme requires every message to touch the center, which is
    vacuous for a process with no channel, but the paper's star has none.
    """
    n = graph.n_vertices
    if n < 2 or graph.n_edges != n - 1:
        return None
    if n == 2:
        return 0 if graph.has_edge(0, 1) else None
    centers = [v for v in graph.vertices() if graph.degree(v) == n - 1]
    if len(centers) != 1:
        return None
    if any(graph.degree(v) != 1 for v in graph.vertices() if v != centers[0]):
        return None
    return centers[0]


def schemes_for(
    graph: CommunicationGraph, fifo: bool
) -> List[SchemeSpec]:
    """The schemes legally runnable on an execution over *graph*."""
    center = star_center_of(graph)
    out: List[SchemeSpec] = []
    for spec in _ALL:
        if spec.requires_fifo and not fifo:
            continue
        if spec.star_only and center is None:
            continue
        out.append(spec)
    return out
