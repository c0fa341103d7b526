"""Array-native causality kernel: the numpy backend for the bitset rows.

The pure decoder (:func:`repro.core.happened_before.past_masks_from_clocks`)
stores each event's strict causal past as one packed Python int.  This
module stores the same matrix as a contiguous ``(m, W)`` ``uint64`` array
with ``W = ceil(m/64)`` — row ``j``, word ``w`` holds bits ``64w .. 64w+63``
of event ``j``'s past, little-endian, so ``row.tobytes()`` is exactly the
``int.to_bytes`` of the pure row — decodes it from the same clock table,
and compares schemes against it in bulk.  The conformance fuzzer's
``backend-differential`` invariant and the hypothesis parity suite pin the
two representations byte-identical.

Intentionally import-guarded: import this module only after
:func:`repro.core.backend.numpy_available` returns True.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
U64 = np.uint64


def past_matrix_from_clocks(
    clocks: Sequence[array], counts: Sequence[int]
) -> np.ndarray:
    """The strict causal-past matrix, decoded from the oracle's clock table.

    Restricted to process ``q``'s block of bits, the row of an event is
    the first ``vc[q]`` bits of the block (its own entry minus one: the
    past is strict).  So per process, a ``(count + 1, words)`` table of
    the block's prefix masks — single bits ORed down by
    ``bitwise_or.accumulate`` — is gathered by the column ``vc[:, q]``
    into the words the block spans.
    """
    n = len(counts)
    m = sum(counts)
    out = np.zeros((m, max(1, (m + 63) >> 6)), dtype=np.uint64)
    if m == 0:
        return out
    vc = np.concatenate(
        [np.frombuffer(table, dtype=np.intc) for table in clocks]
    ).reshape(m, n)
    vc[np.arange(m), np.repeat(np.arange(n), counts)] -= 1
    base = 0
    for q, count in enumerate(counts):
        if count:
            w0, w1 = base >> 6, (base + count - 1) >> 6
            bit = np.arange(count) + (base & 63)
            prefix = np.zeros((count + 1, w1 - w0 + 1), dtype=np.uint64)
            prefix[np.arange(1, count + 1), bit >> 6] = (
                U64(1) << (bit & 63).astype(np.uint64)
            )
            np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
            out[:, w0 : w1 + 1] |= prefix[vc[:, q]]
        base += count
    return out


# ----------------------------------------------------------------------
# matrix <-> packed-int interop
# ----------------------------------------------------------------------
def rows_to_matrix(rows: Sequence[int]) -> np.ndarray:
    """Packed Python-int rows as the ``(m, W)`` matrix (read-only)."""
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


# ----------------------------------------------------------------------
# scheme-side fast path: standard vector comparison, word-parallel
# ----------------------------------------------------------------------
#: bytes of output rows per block: a block and its gather buffer stay in L2
#: while every table of a group is ANDed in
BLOCK_BYTES = 1 << 18


def standard_vector_matrix(
    vectors: Sequence[Tuple[Any, ...]],
) -> Optional[np.ndarray]:
    """Precedes matrix under the standard vector comparison (``<=``, ``!=``).

    The array twin of :func:`repro.clocks.base.standard_vector_rows`: bit
    ``i`` of row ``j`` is set iff ``vectors[i] < vectors[j]``
    componentwise-strictly.  Per coordinate, one argsort of the composite
    key ``value * W + word`` groups equal values *and* target words in a
    single pass; grouped ORs (``bitwise_or.reduceat``) plus a cumulative
    OR down the groups give one dominance row per value.  These tables and
    the equal-vector groups' complement are gathered per event and ANDed
    into the output a cache-sized block of rows at a time, in groups of at
    most ``m + n`` table rows: all of a vector clock's tables (coordinate
    ``q`` takes at most count(q) + 1 values), never ``n`` all-distinct ones.

    Returns ``None`` — caller falls back to the pure path — when the
    input is ragged, non-numeric, or has non-finite / non-integral float
    entries (e.g. the lower-bound schemes' ``INFINITY`` posts); the pure
    sweep handles those via Python's total order on mixed numerics.
    """
    m = len(vectors)
    if m == 0:
        return np.zeros((0, 1), dtype=np.uint64)
    try:  # ints go in with no dtype discovery; a float entry sums to a float
        n = len(vectors[0])
        ints = set(map(len, vectors)) == {n} and type(sum(map(sum, vectors))) is int
        V = np.fromiter(chain.from_iterable(vectors), np.int64, m * n) if ints else None
    except (TypeError, ValueError, OverflowError):
        V = None
    if V is not None:
        V = V.reshape(m, n)
    else:  # floats (integral ones kept), or what the pure sweep takes
        try:
            V = np.asarray(vectors)
        except ValueError:  # ragged: numpy refuses an inhomogeneous shape
            return None
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
    out = np.full((m, W), FULL, dtype=np.uint64)
    idx = np.arange(m)
    col = idx >> 6
    val_all = U64(1) << (idx & 63).astype(np.uint64)
    starts = np.ones(m, dtype=bool)
    # equal-vector removal, built while no other table is held (lexsort is
    # stable: an equal run is in index order); the diagonal is cleared last
    perm = np.lexsort(V.T[::-1])
    np.any(V[perm[1:]] != V[perm[:-1]], axis=1, out=starts[1:])
    gid = np.cumsum(starts) - 1
    group, held = [], 0
    if gid[-1] < m - 1:  # some vector repeats
        group.append(_group_table(perm, gid, gid * W + col[perm], W, val_all))
        np.invert(group[0][0], out=group[0][0])
        held = len(group[0][0])
    for k in range(n):
        keys = V[:, k]
        # composite (value, word) key: 0 <= col < W keeps it lexicographic
        comp = keys * W + col
        perm = np.argsort(comp)
        ks = keys[perm]
        np.not_equal(ks[1:], ks[:-1], out=starts[1:])
        gid = np.cumsum(starts) - 1
        n_values = int(gid[-1]) + 1
        if held + n_values > m + n:
            _and_tables(out, group)
            group, held = [], 0
        group.append(_group_table(perm, gid, comp[perm], W, val_all))
        np.bitwise_or.accumulate(group[-1][0], axis=0, out=group[-1][0])
        held += n_values
    _and_tables(out, group)
    out[idx, col] &= ~val_all
    return out


def _group_table(
    perm: np.ndarray, gid: np.ndarray, key: np.ndarray, W: int, val_all: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(table, row_of)``: row ``g`` ORs the bits of group ``g``, and
    ``row_of[e]`` is event ``e``'s group.  *perm* lists the events by group,
    then by word; ``gid[i]`` is the group of ``perm[i]`` and ``key[i]`` a
    key that ascends with (group, word), its word ``key[i] % W``."""
    sub = np.ones(len(perm), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=sub[1:])
    substart = np.flatnonzero(sub)
    table = np.zeros((int(gid[-1]) + 1, W), dtype=np.uint64)
    table[gid[substart], key[substart] % W] = np.bitwise_or.reduceat(
        val_all[perm], substart
    )
    row_of = np.empty(len(perm), dtype=np.int32)
    row_of[perm] = gid
    return table, row_of


def _and_tables(out: np.ndarray, group: List[Tuple[np.ndarray, np.ndarray]]) -> None:
    """AND into each block of *out*'s rows every table's rows of *group*."""
    step = max(1, BLOCK_BYTES // out[0].nbytes)
    gathered = np.empty((min(step, len(out)), out.shape[1]), dtype=np.uint64)
    for lo in range(0, len(out), step):
        block = out[lo : lo + step]
        buf = gathered[: len(block)]
        for table, row_of in group:
            # indices are in range; "clip" skips the default's buffered copy
            np.take(table, row_of[lo : lo + step], axis=0, out=buf, mode="clip")
            np.bitwise_and(block, buf, out=block)
