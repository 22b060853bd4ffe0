"""Vectorized edge-list kernels used by the round-based solvers.

Edges live in a padded (m, w) int64 matrix: row i holds the ids of edge i
sorted ascending in its first sizes[i] columns, padded with 0 (ids are
1-based, so 0 never collides).  All kernels keep rows sorted and return
fresh arrays; nothing is mutated in place across round boundaries.

Subsets are matched and counted by uint64 keys, one scheme at any edge
width: ids are bit-packed while the key fits in 63 bits; before a column
that would overflow it, the partial key is replaced by its dense rank (one
np.unique pass).  Up to 63 // bit_length(n) ids are packed, never ranked.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import numpy as np


def deg_less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Exact comparison of normalized degrees c^(1/j), given as (c, j) pairs."""
    c1, j1 = a
    c2, j2 = b
    return c1 ** j2 < c2 ** j1


def edge_matrix(edges) -> tuple[np.ndarray, np.ndarray]:
    m = len(edges)
    w = max((len(e) for e in edges), default=1)
    mat = np.zeros((m, w), dtype=np.int64)
    sizes = np.zeros(m, dtype=np.int64)
    for i, e in enumerate(edges):
        sizes[i] = len(e)
        mat[i, : len(e)] = e
    return mat, sizes


def matrix_to_edges(mat: np.ndarray, sizes: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(int(v) for v in mat[i, : sizes[i]]) for i in range(len(sizes))]


def valid_mask(mat: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    cols = np.arange(mat.shape[1], dtype=np.int64)
    return cols[None, :] < sizes[:, None]


def remove_vertices(
    mat: np.ndarray, sizes: np.ndarray, gone: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Delete every id with gone[id] True from every row.

    Rows stay sorted (stable compaction); width shrinks to the new
    maximum size.  Rows may end up empty: callers decide whether that is
    legal.
    """
    if mat.shape[0] == 0:
        return mat, sizes
    keep = valid_mask(mat, sizes) & ~gone[mat]
    new_sizes = keep.sum(axis=1).astype(np.int64)
    order = np.argsort(~keep, axis=1, kind="stable")
    out = np.take_along_axis(mat, order, axis=1)
    out[~valid_mask(out, new_sizes)] = 0
    w = int(new_sizes.max()) if len(new_sizes) else 1
    return out[:, : max(w, 1)], new_sizes


def drop_rows(mat, sizes, mask):
    return mat[~mask], sizes[~mask]


def dedupe_rows(mat: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate edges (rows are sorted+padded, so row equality is
    set equality).  Row order is not preserved; edge order never carries
    meaning here."""
    if mat.shape[0] <= 1:
        return mat, sizes
    uniq, idx = np.unique(mat, axis=0, return_index=True)
    return uniq, sizes[idx]


@cache
def _combos(s: int, t: int) -> np.ndarray:
    """(t, C(s, t)) column indices of the t-subsets of range(s), read-only."""
    idx = np.array(list(combinations(range(s), t)), dtype=np.intp).T
    idx.flags.writeable = False
    return idx


def _subsets(rows: np.ndarray, t: int) -> np.ndarray:
    """Every t-subset of each row of a (k, s) matrix, as a (t, C(s, t) * k)
    matrix of columns: subset number j of row i sits at column j * k + i."""
    return rows.T[_combos(rows.shape[1], t)].reshape(t, -1)


def _row_keys(rows: np.ndarray, bits: int) -> np.ndarray:
    """uint64 keys of the rows of a (k, t) id matrix, equal exactly when
    the rows are equal.

    Ids must lie below 2^bits, and k * 2^bits below 2^63.  Columns are
    packed left to right while the key fits in 63 bits; before a column
    that would overflow it, the partial key is replaced by its dense rank
    among the k rows.  Keys are only comparable within one call.
    """
    shift = np.uint64(bits)
    key = rows[:, 0].astype(np.uint64)
    used = bits
    for c in range(1, rows.shape[1]):
        if used + bits > 63:
            uniq, key = np.unique(key, return_inverse=True)
            key = key.astype(np.uint64)
            used = max((len(uniq) - 1).bit_length(), 1)
        key = (key << shift) | rows[:, c].astype(np.uint64)
        used += bits
    return key


def prune_supersets(
    mat: np.ndarray, sizes: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Remove every row that strictly contains another row.

    Assumes rows are deduplicated.  Mirrors the cleanup semantics of
    :func:`hypermis.core.normalize` on the array representation.
    """
    m = mat.shape[0]
    if m <= 1:
        return mat, sizes
    present = np.flatnonzero(np.bincount(sizes)).tolist()
    if len(present) == 1:
        return mat, sizes  # equal sizes cannot nest strictly
    bits = max(n.bit_length(), 1)
    idx = {s: np.flatnonzero(sizes == s) for s in present}
    rows = {s: mat[i, :s] for s, i in idx.items()}
    doomed = np.zeros(m, dtype=bool)
    for j, t in enumerate(present[:-1]):
        larger = present[j + 1 :]
        subsets = [_subsets(rows[s], t) for s in larger]
        # the size-t rows and the t-subsets of the larger rows are keyed
        # in one call so that their keys are comparable
        keys = _row_keys(np.concatenate([rows[t].T, *subsets], axis=1).T, bits)
        k = len(idx[t])
        small = np.sort(keys[:k])
        pos = np.searchsorted(small, keys[k:]).clip(max=k - 1)
        owners = [np.tile(idx[s], sub.shape[1] // len(idx[s])) for s, sub in zip(larger, subsets)]
        doomed[np.concatenate(owners)[small[pos] == keys[k:]]] = True
    return drop_rows(mat, sizes, doomed)


def degree_pairs(
    mat: np.ndarray, sizes: np.ndarray, n: int
) -> dict[int, tuple[int, int]]:
    """Best (count, j) pair for each edge size s >= 2 present, ascending.

    count is the number of size-s edges sharing some subset x of size
    s - j; the normalized degree it encodes is count^(1/j).  Candidates
    are compared exactly with :func:`deg_less`; among equal degrees the
    largest j wins.  The t = 1 count allocates one counter per id up to
    the largest id present.
    """
    best: dict[int, tuple[int, int]] = {}
    present = np.flatnonzero(np.bincount(sizes))
    bits = max(n.bit_length(), 1)
    for s in present[present >= 2].tolist():
        rows = mat[sizes == s, :s]
        pairs = []
        for t in range(1, s):
            if t == 1:
                c = int(np.bincount(rows.ravel()).max())
            else:
                keys = _row_keys(_subsets(rows, t).T, bits)
                c = int(np.unique(keys, return_counts=True)[1].max())
            pairs.append((c, s - t))
        best[s] = best_pair(pairs)
    return best


def best_pair(pairs) -> tuple[int, int] | None:
    """The first largest of an iterable of (count, j) degree pairs, None
    when it is empty."""
    best: tuple[int, int] | None = None
    for pair in pairs:
        if best is None or deg_less(best, pair):
            best = pair
    return best


def max_norm_degree(
    mat: np.ndarray, sizes: np.ndarray, n: int
) -> tuple[int, int] | None:
    """Best (count, j) pair over all subset degrees, None if no edge of
    size >= 2 exists; among equal degrees the smallest edge size wins."""
    return best_pair(degree_pairs(mat, sizes, n).values())


def degree_value(pair: tuple[int, int] | None) -> float:
    """Float value of a (count, j) degree pair; 1.0 when undefined.

    The 1.0 convention keeps marking probabilities well-defined on
    hypergraphs whose only edges are singletons (those die in the same
    round's cleanup regardless of the coin flips).
    """
    if pair is None:
        return 1.0
    return float(pair[0]) ** (1.0 / pair[1])
