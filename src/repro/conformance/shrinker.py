"""Counterexample shrinking for conformance mismatches.

Delta debugging (Zeller's ddmin, specialized to op lists): given a failing
execution as the flat op list produced by
:func:`repro.core.random_executions.random_ops`, repeatedly delete chunks
of ops — halving the chunk size down to single ops — and keep any deletion
after which the failure still reproduces.  Deleting a send orphans its
receive; :func:`normalize_ops` repairs candidates, so every tested
candidate is a valid execution.

"Still fails" is deliberately coarse: a candidate counts if it produces
*any* mismatch with the same ``(invariant, scheme)`` pair as the original,
not the same detail string — the goal is the smallest execution
demonstrating the bug class, and the exact pair that diverges usually
changes as events disappear.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.core.random_executions import Op, normalize_ops
from repro.topology.graph import CommunicationGraph

#: safety valve: give up shrinking after this many predicate evaluations
MAX_PROBES = 400


def shrink_ops(
    ops: Sequence[Op],
    still_fails: Callable[[Sequence[Op]], bool],
) -> List[Op]:
    """Minimize *ops* while *still_fails* holds.

    The returned list is 1-minimal with respect to single-op deletion
    (unless the probe budget runs out first): removing any one remaining op
    makes the failure disappear.
    """
    current = normalize_ops(ops)
    if not still_fails(current):
        # the normalized original does not reproduce — nothing to do
        return list(ops)
    probes = 0
    chunk = max(1, len(current) // 2)
    while probes < MAX_PROBES:
        removed_any = False
        start = 0
        while start < len(current) and probes < MAX_PROBES:
            candidate = normalize_ops(
                current[:start] + current[start + chunk:]
            )
            probes += 1
            if len(candidate) < len(current) and still_fails(candidate):
                current = candidate
                removed_any = True
                # same start now points at fresh ops; retry there
            else:
                start += chunk
        if chunk > 1:
            chunk = max(1, chunk // 2)
        elif not removed_any:
            break  # single-op pass reached a fixpoint: 1-minimal
    return current


def shrink_mismatch(graph: CommunicationGraph, mismatch):
    """Shrink a :class:`~repro.conformance.fuzzer.Mismatch` in place.

    Returns a new ``Mismatch`` whose ``ops`` are minimized (and whose
    ``detail`` is re-derived from the shrunken execution); the original is
    returned unchanged if shrinking cannot reproduce the failure.
    """
    from repro.conformance.fuzzer import Mismatch, check_execution

    target = (mismatch.invariant, mismatch.scheme)
    witnesses: dict = {}

    def still_fails(candidate: Sequence[Op]) -> bool:
        try:
            found = check_execution(
                graph, candidate, fifo=mismatch.fifo,
                context=mismatch.context,
            )
        except Exception:
            return False
        for mm in found:
            if (mm.invariant, mm.scheme) == target:
                witnesses[tuple(tuple(op) for op in candidate)] = mm
                return True
        return False

    small = shrink_ops(mismatch.ops, still_fails)
    key = tuple(tuple(op) for op in small)
    if key not in witnesses:
        return mismatch
    witness = witnesses[key]
    return Mismatch(
        invariant=witness.invariant,
        scheme=witness.scheme,
        detail=witness.detail,
        n_processes=mismatch.n_processes,
        edges=mismatch.edges,
        ops=key,
        fifo=mismatch.fifo,
        context={**dict(mismatch.context), "shrunk_from": len(mismatch.ops)},
    )
