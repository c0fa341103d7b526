"""Cluster timestamps in the spirit of Ward & Taylor (2001) — Section 5.

Processes are partitioned into clusters.  Events *inside* a cluster are
stored with a short timestamp (a vector over the cluster's members), while
*cluster-receive* events — receives of messages originating outside the
cluster — are stored with a full length-``n`` vector.  The paper contrasts
this with the inline scheme: "the 'cluster-receive' events are assigned
long timestamps; such long timestamps are not necessary in our case."

Reproduction note (documented deviation): the hierarchical traversal
Ward & Taylor use to *decide* causality from the two-level store is out of
scope; this implementation maintains exact vector clocks internally so that
its causality answers are correct by construction, and reproduces only the
**storage profile** (short vs long timestamps, and which events pay for a
long one).  All size measurements in the benchmarks — the reason this
baseline exists — depend only on that storage profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clocks.base import (
    ClockAlgorithm,
    Timestamp,
    standard_vector_rows,
    standard_vector_words,
    vector_lt,
)
from repro.core.events import ProcessId


@dataclass(frozen=True, slots=True)
class ClusterTimestamp(Timestamp):
    """Two-level timestamp.

    ``cluster_vector`` covers the event's own cluster (always stored);
    ``full_vector`` is present only for cluster-receive events.  The hidden
    ``_exact`` field carries the exact vector clock used for comparisons
    (see the module docstring) and is excluded from size accounting.
    """

    cluster_id: int
    cluster_vector: Tuple[int, ...]
    full_vector: Optional[Tuple[int, ...]]
    _exact: Tuple[int, ...]

    def precedes(self, other: "Timestamp") -> bool:
        if not isinstance(other, ClusterTimestamp):
            raise TypeError("cannot compare across schemes")
        return vector_lt(self._exact, other._exact)

    @classmethod
    def precedes_matrix(cls, timestamps):
        return standard_vector_rows([t._exact for t in timestamps])

    @classmethod
    def precedes_matrix_words(cls, timestamps):
        return standard_vector_words([t._exact for t in timestamps])

    def elements(self) -> Tuple[int, ...]:
        if self.full_vector is not None:
            return self.cluster_vector + self.full_vector
        return self.cluster_vector

    @property
    def is_cluster_receive(self) -> bool:
        return self.full_vector is not None


class ClusterClock(ClockAlgorithm):
    """Two-level cluster timestamps over a process partition.

    Parameters
    ----------
    clusters:
        A partition of ``0..n-1``; defaults to contiguous blocks of
        ``ceil(sqrt(n))`` processes (a common sizing rule that balances the
        short-timestamp length against the number of clusters).
    """

    name = "cluster"
    characterizes_causality = True

    def __init__(
        self,
        n_processes: int,
        clusters: Optional[Sequence[Sequence[int]]] = None,
    ) -> None:
        super().__init__(n_processes)
        if clusters is None:
            import math

            size = max(1, math.isqrt(n_processes))
            clusters = [
                list(range(start, min(start + size, n_processes)))
                for start in range(0, n_processes, size)
            ]
        seen: set = set()
        self._members: List[Tuple[int, ...]] = []
        self._cluster_of: Dict[int, int] = {}
        self._pos_in_cluster: Dict[int, int] = {}
        for cid, group in enumerate(clusters):
            members = tuple(group)
            if not members:
                raise ValueError("empty cluster")
            for pos, p in enumerate(members):
                if p in seen or not 0 <= p < n_processes:
                    raise ValueError(f"invalid or duplicate process {p}")
                seen.add(p)
                self._cluster_of[p] = cid
                self._pos_in_cluster[p] = pos
            self._members.append(members)
        if len(seen) != n_processes:
            raise ValueError("clusters must partition all processes")

        self._clock: List[List[int]] = [
            [0] * n_processes for _ in range(n_processes)
        ]

    # ------------------------------------------------------------------
    def cluster_of(self, proc: int) -> int:
        return self._cluster_of[proc]

    def _step(
        self,
        p: ProcessId,
        k: int,
        cluster_receive: bool = False,
        received: Sequence[int] = (),
    ) -> Tuple[int, ...]:
        """Check the index, merge a *received* vector, tick, stamp; returns
        the full vector."""
        self._expect(p, k)
        clock = self._clock[p]
        for i, v in enumerate(received):
            if v > clock[i]:
                clock[i] = v
        clock[p] += 1
        exact = tuple(clock)
        cid = self._cluster_of[p]
        cluster_vec = tuple(clock[m] for m in self._members[cid])
        self._stamp(p, k, ClusterTimestamp(
            cluster_id=cid,
            cluster_vector=cluster_vec,
            full_vector=exact if cluster_receive else None,
            _exact=exact,
        ))
        return exact

    def record_local(self, p: ProcessId, k: int) -> None:
        self._step(p, k)

    def record_send(self, p: ProcessId, k: int, peer: ProcessId) -> Any:
        return self._step(p, k)

    def record_receive(
        self, p: ProcessId, k: int, peer: ProcessId, payload: Any
    ) -> None:
        external = self._cluster_of[peer] != self._cluster_of[p]
        self._step(p, k, cluster_receive=external, received=payload)
