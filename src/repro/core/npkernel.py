"""Array-native causality kernel: numpy backend for the bitset rows.

The pure kernel (:mod:`repro.core.happened_before`) stores each event's
strict causal past as one packed Python int.  This module stores the same
matrix as a contiguous ``(m, W)`` ``uint64`` array with ``W = ceil(m/64)``
— row ``j``, word ``w`` holds bits ``64w .. 64w+63`` of event ``j``'s past,
little-endian, so ``row.tobytes()`` is exactly the ``int.to_bytes`` of the
pure row.  Everything here is pinned byte-identical to the pure kernel by
the conformance fuzzer's ``backend-differential`` invariant and the
hypothesis parity suite.

Construction does not replay ``delivery_order()`` event by event.  Only
receives merge information across processes, so each row decomposes as::

    row(p, i) = A[anchor(p, i)] | own-prefix bits [base_p, base_p + i - 1)

where ``anchor(p, i)`` is the latest receive at ``p`` with local index
``< i`` (or the zero row).  Each receive's anchor row depends on at most
two earlier receives (its process predecessor and its send's anchor), so
the anchors form a DAG processed in topological order with two bulk
``OR``s per receive; every non-anchor row is then a single gather plus a
scatter of contiguous own-prefix intervals.  Net cost: O(receives) numpy
row ops instead of O(events) Python big-int ops — the "bulk row path" the
PR-7 benchmark gates at ≥2M appends/s.

Intentionally import-guarded: import this module only after
:func:`repro.core.backend.numpy_available` returns True.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
U64 = np.uint64
#: LOWC[r] = word with the low ``r`` bits set, r in 0..64
LOWC = np.concatenate(
    [(U64(1) << np.arange(64, dtype=np.uint64)) - U64(1), [FULL]]
)


def scatter_or_intervals(
    target: np.ndarray, row_of: np.ndarray, lo: Any, hi: Any
) -> None:
    """``target[row_of[t], w] |= bits of [lo[t], hi[t]) falling in word w``.

    Flat scatter: work is proportional to the number of *touched words*,
    not rows×width.  Empty intervals (``hi <= lo``) are allowed and
    skipped; ``row_of`` may repeat rows (the scatter ORs, fancy-index
    assignment would not — pairs within one call must be unique, which
    holds for the disjoint per-word interval decomposition used here).
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    keep = hi > lo
    if not keep.all():
        row_of = row_of[keep]
        lo = lo[keep]
        hi = hi[keep]
    if len(lo) == 0:
        return
    w0 = lo >> 6
    w1 = (hi - 1) >> 6
    spans = w1 - w0 + 1
    total = int(spans.sum())
    starts = np.cumsum(spans) - spans
    off = np.arange(total, dtype=np.int64) - np.repeat(starts, spans)
    col = np.repeat(w0, spans) + off
    rows_f = np.repeat(row_of, spans)
    # value: full word, trimmed at the interval's first and last word
    vals = np.full(total, FULL, dtype=np.uint64)
    first = off == 0
    last = col == np.repeat(w1, spans)
    np.bitwise_and(
        vals, ~LOWC[np.repeat(lo & 63, spans)], out=vals, where=first
    )
    np.bitwise_and(
        vals, LOWC[np.repeat(((hi - 1) & 63) + 1, spans)], out=vals, where=last
    )
    target[rows_f, col] |= vals


def bulk_past_matrix(execution) -> np.ndarray:
    """The strict causal-past matrix of *execution*, built by bulk row ops.

    Byte-identical to the pure kernel's ``past_masks()`` rows under the
    same process-major dense indexing.  Raises ``RuntimeError`` if the
    receive dependencies contain a cycle (a causally inconsistent
    execution, which a well-formed :class:`~repro.core.execution.Execution`
    cannot produce).
    """
    nproc = execution.n_processes
    # event_counts/receive_pairs avoid touching event or message objects —
    # on the columnar store they read straight from the id columns
    counts = np.asarray(execution.event_counts(), dtype=np.int64)
    m = int(counts.sum())
    W = max(1, (m + 63) >> 6)
    bases = np.zeros(nproc, dtype=np.int64)
    if nproc > 1:
        np.cumsum(counts[:-1], out=bases[1:])
    if m == 0:
        return np.zeros((0, W), dtype=np.uint64)

    recvs = execution.receive_pairs()
    n_recv = len(recvs)
    # anchor rows, 1-based; row 0 stays zero (= "no receive before me")
    anchors = np.zeros((n_recv + 1, W), dtype=np.uint64)

    if n_recv:
        # per-process receive positions, sorted by local index, with the
        # anchor id (k+1) of each — the bisect lookups below require order
        by_proc: List[List[Tuple[int, int]]] = [[] for _ in range(nproc)]
        for k, (re, _se) in enumerate(recvs):
            by_proc[re.proc].append((re.index, k + 1))
        ridx: List[List[int]] = [[] for _ in range(nproc)]
        rk: List[List[int]] = [[] for _ in range(nproc)]
        for p, pairs in enumerate(by_proc):
            pairs.sort()
            ridx[p] = [i for i, _ in pairs]
            rk[p] = [k1 for _, k1 in pairs]
        # each receive depends on <= 2 earlier receives: its process
        # predecessor (paid) and the last receive before its send (said)
        paid = [0] * n_recv
        said = [0] * n_recv
        indeg = [0] * n_recv
        children: List[List[int]] = [[] for _ in range(n_recv)]
        p_arr = np.empty(n_recv, dtype=np.int64)
        i_arr = np.empty(n_recv, dtype=np.int64)
        sp_arr = np.empty(n_recv, dtype=np.int64)
        si_arr = np.empty(n_recv, dtype=np.int64)
        for k, (re, se) in enumerate(recvs):
            p, i, sp, si = re.proc, re.index, se.proc, se.index
            p_arr[k], i_arr[k], sp_arr[k], si_arr[k] = p, i, sp, si
            j = bisect_left(ridx[p], i)
            if j:
                paid[k] = rk[p][j - 1]
                indeg[k] += 1
                children[rk[p][j - 1] - 1].append(k)
            j = bisect_left(ridx[sp], si)
            if j:
                said[k] = rk[sp][j - 1]
                if said[k] != paid[k]:
                    indeg[k] += 1
                    children[rk[sp][j - 1] - 1].append(k)
        # seed every anchor with its fixed contribution:
        # own prefix [ob, ob+i-1) | send prefix [sb, sb+si-1) | send bit
        ob = bases[p_arr]
        sb = bases[sp_arr]
        ar1 = np.arange(1, n_recv + 1)
        scatter_or_intervals(anchors, ar1, ob, ob + i_arr - 1)
        scatter_or_intervals(anchors, ar1, sb, sb + si_arr - 1)
        sd = sb + si_arr - 1
        anchors[ar1, sd >> 6] |= U64(1) << (sd & 63).astype(np.uint64)
        # chain the anchors in dependency order: two bulk ORs per receive
        queue = deque(k for k in range(n_recv) if indeg[k] == 0)
        done = 0
        while queue:
            k = queue.popleft()
            done += 1
            out = anchors[k + 1]
            out |= anchors[paid[k]]
            out |= anchors[said[k]]
            for c in children[k]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if done != n_recv:
            raise RuntimeError("execution is not causally consistent")

        # anchor id per dense position: the latest receive at the same
        # process with a strictly smaller local index (vectorized lookup)
        recv_dense: List[int] = []
        recv_aid: List[int] = []
        basel = bases.tolist()
        for p in range(nproc):
            b = basel[p]
            for i, k1 in zip(ridx[p], rk[p]):
                recv_dense.append(b + i - 1)
                recv_aid.append(k1)
        dense_arr = np.array(recv_dense, dtype=np.int64)
        aid_arr = np.array(recv_aid, dtype=np.int64)
        g = np.searchsorted(dense_arr, np.arange(m), side="right")
        base_g = np.repeat(
            np.searchsorted(dense_arr, bases, side="left"), counts
        )
        aid = np.where(g - base_g > 0, aid_arr[np.clip(g - 1, 0, None)], 0)
        rows = anchors[aid]
    else:
        rows = np.zeros((m, W), dtype=np.uint64)

    # triangular own-prefix fill: bits [bases[p], d) for the event at d
    d = np.arange(m, dtype=np.int64)
    scatter_or_intervals(rows, d, np.repeat(bases, counts), d)
    return rows


# ----------------------------------------------------------------------
# matrix <-> packed-int interop
# ----------------------------------------------------------------------
def matrix_to_rows(mat: np.ndarray) -> List[int]:
    """All rows as packed Python ints (the pure kernel's representation)."""
    m, W = mat.shape
    buf = np.ascontiguousarray(mat).tobytes()
    stride = W * 8
    return [
        int.from_bytes(buf[j * stride : (j + 1) * stride], "little")
        for j in range(m)
    ]


def rows_to_matrix(rows: Sequence[int]) -> np.ndarray:
    """Packed Python-int rows as the ``(m, W)`` matrix (read-only): the
    inverse of :func:`matrix_to_rows`."""
    m = len(rows)
    stride = max(1, (m + 63) >> 6) * 8
    buf = b"".join([row.to_bytes(stride, "little") for row in rows])
    return np.frombuffer(buf, dtype=np.uint64).reshape(m, stride // 8)


def submatrix(mat: np.ndarray, sel: Sequence[int]) -> np.ndarray:
    """The relation restricted to the positions *sel*, re-packed: bit ``a``
    of row ``b`` is bit ``sel[a]`` of row ``sel[b]`` of *mat*.

    Holds one byte per selected cell while packing — for event subsets,
    not for whole executions.
    """
    idx = np.asarray(sel, dtype=np.intp)
    k = len(idx)
    out = np.zeros((k, max(1, (k + 63) >> 6) * 8), dtype=np.uint8)
    if k:
        cells = mat[np.ix_(idx, idx >> 6)] >> (idx & 63).astype(np.uint64)
        packed = np.packbits(
            (cells & U64(1)).astype(np.uint8), axis=1, bitorder="little"
        )
        out[:, : packed.shape[1]] = packed
    return out.view(np.uint64)


def mismatch_indices(
    scheme: np.ndarray, truth: np.ndarray
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Where a scheme's precedes-matrix and the truth matrix disagree.

    Returns ``(neg_i, neg_j, pos_i, pos_j)``: parallel position lists of
    the cells ``(i, j)`` — bit ``i`` of row ``j`` — that differ off the
    diagonal, those set in *truth* (missed orderings) and those clear in it
    (claimed orderings), each in the pairwise reference order: pair-major
    over ``(min, max)``, direction ``min -> max`` first.  Only the nonzero
    words of the XOR are unpacked, so temporaries are O(mismatches) and an
    exact scheme costs one XOR and one scan.
    """
    m = len(truth)
    diff = scheme ^ truth
    d = np.arange(m)
    # scheme rows keep a zero diagonal by contract; clear it all the same
    diff[d, d >> 6] &= ~(U64(1) << (d & 63).astype(np.uint64))
    if not diff.any():
        return [], [], [], []
    rows, words = np.nonzero(diff)
    bits = np.unpackbits(
        diff[rows, words].view(np.uint8).reshape(-1, 8),
        axis=1,
        bitorder="little",
    )
    at, bit = np.nonzero(bits)
    j = rows[at]
    i = (words[at] << 6) + bit
    # one key per cell, so the order is total and any sort kind gives it
    order = np.argsort(
        (np.minimum(i, j) * m + np.maximum(i, j)) * 2 + (i > j)
    )
    i, j = i[order], j[order]
    missed = (truth[j, i >> 6] >> (i & 63).astype(np.uint64) & U64(1)).astype(bool)
    return (
        i[missed].tolist(), j[missed].tolist(),
        i[~missed].tolist(), j[~missed].tolist(),
    )


def ordered_pair_count(mat: np.ndarray) -> int:
    """Total popcount of the matrix = number of ordered (e, f) pairs."""
    return int(np.bitwise_count(mat).sum(dtype=np.int64))


def vector_clocks_from_matrix(
    mat: np.ndarray, counts: Sequence[int]
) -> List[array]:
    """Full-length vector clocks of every event, from the past matrix.

    ``vc[e][p]`` counts the events of process ``p`` in the causal past of
    ``e`` *including* ``e`` at its own coordinate — the Fidge/Mattern
    definition.  Process-major indexing makes each process one contiguous
    bit range, so the count is a masked popcount per block.  Returned as
    the oracle's clock table: one flat ``array('i')`` per process, the
    clock of its ``k``-th event at ``[(k-1)*n, k*n)``, entry for entry
    the pure kernel's.
    """
    m = mat.shape[0]
    nproc = len(counts)
    cnt = np.zeros((m, nproc), dtype=np.intc)
    base = 0
    for p, c in enumerate(counts):
        if c == 0:
            continue
        lo, hi = base, base + c
        base = hi
        w0, w1 = lo >> 6, (hi - 1) >> 6
        sub = mat[:, w0 : w1 + 1].copy()
        sub[:, 0] &= ~LOWC[lo & 63]
        sub[:, -1] &= LOWC[((hi - 1) & 63) + 1]
        cnt[:, p] = np.bitwise_count(sub).sum(axis=1, dtype=np.int64)
    if m:
        # own coordinate: strict past inside the own block is index-1
        own = np.repeat(np.arange(nproc), np.asarray(counts, dtype=np.int64))
        cnt[np.arange(m), own] += 1
    tables = []
    base = 0
    for c in counts:
        table = array("i")
        table.frombytes(cnt[base : base + c].tobytes())
        tables.append(table)
        base += c
    return tables


# ----------------------------------------------------------------------
# scheme-side fast path: standard vector comparison, word-parallel
# ----------------------------------------------------------------------
def standard_vector_matrix(
    vectors: Sequence[Tuple[Any, ...]],
) -> Optional[np.ndarray]:
    """Precedes matrix under the standard vector comparison (``<=``, ``!=``).

    The array twin of :func:`repro.clocks.base.standard_vector_rows`: bit
    ``i`` of row ``j`` is set iff ``vectors[i] < vectors[j]``
    componentwise-strictly.  Per coordinate, one argsort of the composite
    key ``value * W + word`` groups equal values *and* target words in a
    single pass; grouped ORs (``bitwise_or.reduceat``) plus a cumulative
    OR down the groups give the dominance mask, ANDed across coordinates;
    equal-vector groups are then cleared.

    Returns ``None`` — caller falls back to the pure path — when the
    input is ragged, non-numeric, or has non-finite / non-integral float
    entries (e.g. the lower-bound schemes' ``INFINITY`` posts); the pure
    sweep handles those via Python's total order on mixed numerics.
    """
    m = len(vectors)
    if m == 0:
        return np.zeros((0, 1), dtype=np.uint64)
    V = np.asarray(vectors)
    if V.ndim != 2 or V.dtype == object:
        return None
    if not np.issubdtype(V.dtype, np.integer):
        if not np.issubdtype(V.dtype, np.floating):
            return None
        if not np.isfinite(V).all():
            return None
        Vi = V.astype(np.int64)
        if not (Vi == V).all():
            return None
        V = Vi
    else:
        V = V.astype(np.int64, copy=False)
    n = V.shape[1]
    W = (m + 63) >> 6
    if n == 0:
        # every vector equals every other: nothing strictly precedes
        return np.zeros((m, W), dtype=np.uint64)
    rows = np.full((m, W), FULL, dtype=np.uint64)
    idx = np.arange(m)
    col = idx >> 6
    val_all = U64(1) << (idx & 63).astype(np.uint64)
    gid_orig = np.empty(m, dtype=np.intp)
    tmp = np.empty_like(rows)
    starts = np.empty(m, dtype=bool)
    sub = np.empty(m, dtype=bool)
    for k in range(n):
        keys = V[:, k]
        # composite (value, word) key: 0 <= col < W keeps it lexicographic
        comp = keys * W + col
        perm = np.argsort(comp)
        cs = comp[perm]
        ks = keys[perm]
        starts[0] = True
        np.not_equal(ks[1:], ks[:-1], out=starts[1:])
        sub[0] = True
        np.not_equal(cs[1:], cs[:-1], out=sub[1:])
        gid = np.cumsum(starts) - 1
        substart = np.flatnonzero(sub)
        orvals = np.bitwise_or.reduceat(val_all[perm], substart)
        grouped = np.zeros((int(gid[-1]) + 1, W), dtype=np.uint64)
        grouped[gid[substart], cs[substart] - ks[substart] * W] = orvals
        np.bitwise_or.accumulate(grouped, axis=0, out=grouped)
        gid_orig[perm] = gid
        np.take(grouped, gid_orig, axis=0, out=tmp)
        np.bitwise_and(rows, tmp, out=rows)
    # equal-vector removal: vectors never strictly precede their equals
    perm = np.lexsort(V.T[::-1])
    Vs = V[perm]
    starts[0] = True
    np.any(Vs[1:] != Vs[:-1], axis=1, out=starts[1:])
    gid = np.cumsum(starts) - 1
    comp = gid * W + col[perm]
    sub[0] = True
    np.not_equal(comp[1:], comp[:-1], out=sub[1:])
    substart = np.flatnonzero(sub)
    orvals = np.bitwise_or.reduceat(val_all[perm], substart)
    grouped = np.zeros((int(gid[-1]) + 1, W), dtype=np.uint64)
    grouped[comp[substart] // W, comp[substart] % W] = orvals
    gid_orig[perm] = gid
    np.take(grouped, gid_orig, axis=0, out=tmp)
    rows &= ~tmp
    return rows
