"""Vectorized edge-list kernels of :mod:`hypermis.core` and the solvers.

Edges live in a padded (m, w) int64 matrix: row i holds the ids of edge i
sorted ascending in its first sizes[i] columns, padded with 0 (ids are
1-based, so 0 never collides); each Hypergraph caches its own, read-only.
Kernels keep rows sorted and never write to their input, which they may
return as is; the one stateful piece is :class:`SubsetCounts`, the
subset-count tables behind every degree pair: the marking solver updates
them row by row, and :func:`hypermis.core.degree_profile` and
:func:`max_norm_degree` build them from scratch.

Subsets are matched and counted by uint64 keys, one scheme at any edge
width: ids are bit-packed while the key fits in 63 bits; before a column
that would overflow it, the partial key is replaced by its dense rank (one
np.unique pass, or a lookup in a fixed table of ranks when keys must stay
comparable across calls).  Up to 63 // bit_length(n) ids are packed, never
ranked.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations

import numpy as np


def deg_less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Exact comparison of normalized degrees c^(1/j), given as (c, j) pairs."""
    c1, j1 = a
    c2, j2 = b
    return c1 ** j2 < c2 ** j1


def edge_matrix(edges) -> tuple[np.ndarray, np.ndarray]:
    sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
    mat = np.zeros((len(edges), int(sizes.max(initial=1))), dtype=np.int64)
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=int(sizes.sum()))
    mat[valid_mask(mat, sizes)] = flat
    return mat, sizes


def matrix_to_edges(mat: np.ndarray, sizes: np.ndarray) -> list[tuple[int, ...]]:
    if (sizes == mat.shape[1]).all():
        return list(zip(*mat.T.tolist()))
    return [tuple(row[:size]) for row, size in zip(mat.tolist(), sizes.tolist())]


def valid_mask(mat: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    cols = np.arange(mat.shape[1], dtype=np.int64)
    return cols[None, :] < sizes[:, None]


def remove_vertices(
    mat: np.ndarray, sizes: np.ndarray, drop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Delete the entries where the (m, w) mask `drop` is True from each row.

    Rows stay sorted (stable compaction) and keep their width.  Rows may
    end up empty: callers decide whether that is legal.
    """
    if mat.shape[0] == 0:
        return mat, sizes
    keep = valid_mask(mat, sizes) & ~drop
    new_sizes = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")
    out = np.take_along_axis(mat, order, axis=1)
    out[~valid_mask(out, new_sizes)] = 0
    return out, new_sizes


def distinct(x: np.ndarray, counts: bool = False):
    """np.unique of a 1-d array, with the counts if asked: one sort, which
    costs less than np.unique's overhead on small arrays and its hashing
    on large ones."""
    x = np.sort(x)
    first = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=first[1:])
    if not counts:
        return x[first]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(x))
    return x[starts], ends - starts


def member(x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mask of the entries of `x` found in the sorted array `ids`."""
    if not len(ids):
        return np.zeros(x.shape, dtype=bool)
    pos = np.searchsorted(ids, x)
    return ids[np.minimum(pos, len(ids) - 1, out=pos)] == x


def without(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted array `a` without the entries of `b`, all found in `a`."""
    keep = np.ones(len(a), dtype=bool)
    keep[np.searchsorted(a, b)] = False
    return a[keep]


def drop_rows(mat, sizes, mask):
    return mat[~mask], sizes[~mask]


def rows_inside(mat: np.ndarray, sizes: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mask of the rows all of whose ids are among the sorted ids `ids`."""
    return (member(mat, ids) | ~valid_mask(mat, sizes)).all(axis=1)


def is_maximal_on(mat, sizes, s, vertices) -> bool:
    """True iff no row lies inside the sorted ids `s` and each id of
    `vertices` is in s or blocked, the one id of some row outside s."""
    outside = valid_mask(mat, sizes) & ~member(mat, s)
    left = outside.sum(axis=1)
    if not left.all():
        return False
    blocked = np.sort(mat[left == 1][outside[left == 1]])
    return bool((member(vertices, s) | member(vertices, blocked)).all())


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


def _row_keys(rows: np.ndarray, bits: int, ranks: list | None = None) -> np.ndarray:
    """uint64 keys of the rows of a (k, t) id matrix, equal exactly when
    the rows are equal.

    Ids must lie below 2^bits, and k * 2^bits below 2^63.  Columns are
    packed left to right while the key fits in 63 bits; before a column
    c that would overflow it, the partial key (of the first c columns) is
    replaced by its dense rank: among the k rows, so that keys are only
    comparable within one call, or, given `ranks`, in the sorted key
    table ranks[c], which must hold every such partial key.
    """
    shift = np.uint64(bits)
    key = rows[:, 0].astype(np.uint64)
    used = bits
    for c in range(1, rows.shape[1]):
        if used + bits > 63:
            if ranks is None:
                uniq, key = np.unique(key, return_inverse=True)
            else:
                uniq, key = ranks[c], np.searchsorted(ranks[c], key)
            key = key.astype(np.uint64)
            used = max((len(uniq) - 1).bit_length(), 1)
        key = (key << shift) | rows[:, c].astype(np.uint64)
        used += bits
    return key


def lex_keys(mat: np.ndarray, n: int) -> np.ndarray:
    """Keys of the rows of a padded matrix of ids up to n, equal exactly
    when the rows are and ordered as the rows are, lexicographically: the
    ids packed in one int64 where they fit, else :func:`_row_keys` where
    its ranks fit, else the ranks of the distinct rows."""
    bits = max(n.bit_length(), 1)
    if mat.shape[1] * bits <= 63:
        return mat @ (1 << bits * np.arange(mat.shape[1] - 1, -1, -1))
    if bits + mat.shape[0].bit_length() <= 63:
        return _row_keys(mat, bits)
    return np.unique(mat, axis=0, return_inverse=True)[1].reshape(-1)


def prune_supersets(
    mat: np.ndarray, sizes: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Remove every row that strictly contains another row.

    Assumes rows are deduplicated.  :func:`hypermis.core.normalize` runs
    it; tests/conftest.py holds a plain-set transcription to check it by.
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


def best_pair(pairs) -> tuple[int, int] | None:
    """The first largest of an iterable of (count, j) degree pairs, None
    when it is empty."""
    best: tuple[int, int] | None = None
    for pair in pairs:
        if best is None or deg_less(best, pair):
            best = pair
    return best


def degree_value(pair: tuple[int, int] | None) -> float:
    """Float value of a (count, j) degree pair; 1.0 when undefined.

    The 1.0 convention keeps marking probabilities well-defined on
    hypergraphs whose only edges are singletons (those die in the same
    round's cleanup regardless of the coin flips).
    """
    if pair is None:
        return 1.0
    return float(pair[0]) ** (1.0 / pair[1])


class SubsetCounts:
    """Subset counts of the rows, the one source of degree pairs: built
    from scratch for :func:`hypermis.core.degree_profile` and
    :func:`max_norm_degree`, and kept up to date by the solvers as rows are
    counted and uncounted, so a round reads its degree pair without a pass
    over the rows.

    A t-subset is numbered by its index in keys[t], the sorted keys of
    the t-subsets of the rows given at construction (:func:`_row_keys`
    with keys[c] ranking the partial keys, so keys compare across calls).
    Only subsets of those rows can be counted later, which holds while
    rows only shrink.  The table of each (s, t) in `tables` holds one
    count per t-subset, the number of counted size-s rows holding it;
    the tables lie end to end in `count`, table i from starts[i] to
    starts[i + 1].  hist[i, c] is the number of subsets of table i
    counted c times, and top[i] the largest count.
    """

    def __init__(self, mat: np.ndarray, sizes: np.ndarray, n: int):
        self.bits = max(n.bit_length(), 1)
        present = np.flatnonzero(np.bincount(sizes)).tolist()
        self.keys: list = [None]
        found = []  # the subset numbers of every (s, t) with size-s rows
        for t in range(1, max(present, default=1)):
            larger = [s for s in present if s > t]
            subsets = [_subsets(mat[sizes == s, :s], t) for s in larger]
            keys = _row_keys(np.concatenate(subsets, axis=1).T, self.bits, self.keys)
            keys, ids = np.unique(keys, return_inverse=True)
            self.keys.append(keys)
            cuts = np.cumsum([sub.shape[1] for sub in subsets])[:-1]
            found += [((s, t), part) for s, part in zip(larger, np.split(ids, cuts))]
        self.tables = [(s, t) for s in range(2, len(self.keys) + 1) for t in range(1, s)]
        self.starts = np.cumsum([0, *(len(self.keys[t]) for _, t in self.tables)])
        self.base = dict(zip(self.tables, self.starts.tolist()))
        ids = [np.zeros(0, np.intp)] + [self.base[st] + part for st, part in found]
        self.count = np.bincount(np.concatenate(ids), minlength=self.starts[-1])
        # a count never exceeds the number of rows
        self.hist = np.zeros((len(self.tables), len(sizes) + 1), dtype=np.int64)
        self.top = np.zeros(len(self.tables), dtype=np.int64)
        for i, (lo, hi) in enumerate(zip(self.starts[:-1], self.starts[1:])):
            self.hist[i] = np.bincount(self.count[lo:hi], minlength=len(sizes) + 1)
            self.top[i] = self.count[lo:hi].max(initial=0)

    def add(self, mat: np.ndarray, sizes: np.ndarray, signs: np.ndarray) -> None:
        """Count (signs[i] = 1) or uncount (-1) the subsets of row i."""
        ids, steps = [], []
        for s in (np.flatnonzero(np.bincount(sizes)[2:]) + 2).tolist():
            at = sizes == s
            rows, row_signs = mat[at, :s], signs[at]
            for t in range(1, s):
                keys = _row_keys(_subsets(rows, t).T, self.bits, self.keys)
                ids.append(self.base[s, t] + np.searchsorted(self.keys[t], keys))
                steps.append(np.tile(row_signs, len(keys) // len(rows)))
        if not ids:
            return
        found = np.concatenate(ids)
        ids = distinct(found)
        old = self.count[ids]
        np.add.at(self.count, found, np.concatenate(steps))
        new = self.count[ids]
        table = np.searchsorted(self.starts, ids, side="right") - 1
        np.add.at(self.hist, (table, old), -1)
        np.add.at(self.hist, (table, new), 1)
        np.maximum.at(self.top, table, new)
        emptied = self.hist[np.arange(len(self.top)), self.top] == 0
        for i in np.flatnonzero(emptied).tolist():
            self.top[i] = np.flatnonzero(self.hist[i, : self.top[i]])[-1]

    def pairs(self, nsize: np.ndarray) -> dict[int, tuple[int, int]]:
        """Best (count, j) pair of each edge size s >= 2 among the counted
        rows, of which nsize[s] have size s, for the sizes with rows,
        ascending: count rows of size s share a subset of size s - j, a
        normalized degree of count^(1/j).  Among equal degrees the largest
        j wins."""
        by_size: dict[int, list[tuple[int, int]]] = {}
        for (s, t), c in zip(self.tables, self.top.tolist()):
            if nsize[s]:
                by_size.setdefault(s, []).append((c, s - t))
        return {s: best_pair(p) for s, p in by_size.items()}

    def best(self, nsize: np.ndarray) -> tuple[int, int] | None:
        """Best pair over all sizes of :meth:`pairs`; among equal degrees
        the smallest edge size wins."""
        return best_pair(self.pairs(nsize).values())


def max_norm_degree(
    mat: np.ndarray, sizes: np.ndarray, n: int
) -> tuple[int, int] | None:
    """Best (count, j) pair over all subset degrees, None if no edge of
    size >= 2 exists: :meth:`SubsetCounts.best` counted from scratch.  No
    solver calls it (they keep their counts); it stays as an entry point
    for the benchmark tracer and the tests."""
    return SubsetCounts(mat, sizes, n).best(np.bincount(sizes))
