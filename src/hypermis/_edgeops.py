"""Vectorized edge-list kernels of :mod:`hypermis.core` and the solvers.

Edges live in a padded (m, w) int64 matrix: row i holds the ids of edge i
sorted ascending in its first sizes[i] columns, padded with 0 (ids are
1-based, so 0 never collides); a Hypergraph is one such matrix, read-only.
Kernels keep rows sorted and never write to their input, which they may
return as is; the one stateful piece is :class:`SubsetCounts`, which
gives the rows' proper subsets one number each, across all sizes, that
indexes both its counts and its holder lists: the counts give every
degree pair (the marking solver moves each changed row from its old
column mask, the columns of the row as built it still holds, to its new
one, reading the masks' submasks from lists built once per width,
:func:`_submasks`; :func:`hypermis.core.degree_profile` counts from
scratch), and the holder lists the solver's containment search.  Equal
keys are ranked in one place, :func:`group`: one sort per subset size
gives both the subset numbers and their holder lists, and the pair
lists, the row dedupe, the ranks of :func:`lex_keys` and the
generator's first draws use it too.

Rows and subsets are matched by the int64 keys of :func:`lex_keys`, one
scheme at any edge width and any n below 2^63: ids are bit-packed while
the key fits in 63 bits, and ranks replace what does not fit, so keys
are equal exactly when the rows are and ordered as the rows are, but
compare only within one call.  Up to 63 // bit_length(n) ids are packed,
never ranked.
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


def compact(mat: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of `mat` where the mask `keep` is True, moved to the
    front of their rows in order and zero padded to the same width; and
    the number of them in each row."""
    sizes = keep.sum(axis=1)
    out = np.zeros_like(mat)
    out[valid_mask(out, sizes)] = mat[keep]
    return out, sizes


def remove_vertices(
    mat: np.ndarray, sizes: np.ndarray, drop: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Delete the entries where the (m, w) mask `drop` is True from each row.

    Rows stay sorted and keep their width.  Rows may end up empty:
    callers decide whether that is legal.  No module of the package calls
    it (they call :func:`compact`); it is kept only for
    perfbench/tracer.py and the tests, until the benchmark drops it.
    """
    return compact(mat, valid_mask(mat, sizes) & ~drop)


def distinct(x: np.ndarray, counts: bool = False):
    """The sorted distinct values of a 1-d array, with the count of each if
    asked: one sort, which costs less than numpy's unique on small arrays
    (its overhead) and on large ones (its hashing)."""
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


def flags(size: int, at: np.ndarray) -> np.ndarray:
    """Bool array of `size` entries, True exactly at the indices `at`."""
    out = np.zeros(size, dtype=bool)
    out[at] = True
    return out


def without(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sorted array `a` without the entries of `b`, all found in `a`."""
    keep = np.ones(len(a), dtype=bool)
    keep[np.searchsorted(a, b)] = False
    return a[keep]


def csr_gather(ptr: np.ndarray, items: np.ndarray, lists: np.ndarray):
    """(k, x) for each x of list lists[k], list j being items[ptr[j] : ptr[j + 1]]."""
    lo = ptr[lists]
    cnt = ptr[lists + 1] - lo
    k = np.arange(len(lists)).repeat(cnt)
    return k, items[np.arange(len(k)) + (lo - cnt.cumsum() + cnt)[k]]


def group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(num, ptr, order) of a 1-d array: num[i] is the rank of keys[i] among
    the distinct keys, and the entries of rank g are order[ptr[g] : ptr[g + 1]],
    in no set order: the sort is not stable."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)  # first entry of its rank
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    num = np.empty(len(keys), dtype=np.intp)
    num[order] = np.cumsum(first) - 1
    return num, np.append(np.flatnonzero(first), len(keys)), order


def incidence(mat: np.ndarray, sizes: np.ndarray, verts: np.ndarray):
    """(order, rows, ptr): the rows holding verts[k] are rows[ptr[k] :
    ptr[k + 1]], and `order` sorts the entries of the rows (row by row)
    by id.  Every id of the rows must be among the sorted ids `verts`."""
    ids = mat[valid_mask(mat, sizes)]
    order = np.argsort(ids)
    ptr = np.append(np.searchsorted(ids[order], verts), len(ids))
    return order, np.repeat(np.arange(len(sizes)), sizes)[order], ptr


def rows_inside(mat: np.ndarray, sizes: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mask of the rows all of whose ids are among the sorted ids `ids`."""
    return (member(mat, ids) | ~valid_mask(mat, sizes)).all(axis=1)


def is_maximal_on(mat, sizes, s, vertices) -> bool:
    """True iff no row lies inside the sorted ids `s` and each id of
    `vertices` is in s or blocked, the one id of some row outside s; an
    int n, not an array, stands for 1..n, which s (distinct) and blocked fill."""
    outside = valid_mask(mat, sizes) & ~np.isin(mat, s)
    left = outside.sum(axis=1)
    if not left.all():
        return False
    blocked = np.sort(mat[left == 1][outside[left == 1]])
    if not isinstance(vertices, np.ndarray):  # blocked ids lie in 1..n, outside s
        return np.count_nonzero((s >= 1) & (s <= vertices)) + len(distinct(blocked)) == vertices
    return bool((member(vertices, s) | member(vertices, blocked)).all())


def dedupe_rows(mat: np.ndarray, sizes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate edges (rows are sorted+padded, so row equality is
    set equality); the rows left are in lexicographic order."""
    if mat.shape[0] <= 1:
        return mat, sizes
    _, ptr, order = group(lex_keys(mat, n))
    idx = order[ptr[:-1]]  # any row of a rank: keys are equal only when rows are
    return mat[idx], sizes[idx]


@cache
def _combos(s: int, t: int) -> np.ndarray:
    """(t, C(s, t)) column indices of the t-subsets of range(s), read-only."""
    idx = np.array(list(combinations(range(s), t)), dtype=np.intp).T
    idx.flags.writeable = False
    return idx


_LIST_BITS = 12  # the widest submask list: 3^12 entries, 1 MiB
MAX_NUMBERED_IDS = 59  # a row keeps 2^size intp subset numbers; an array holds < 2^63 bytes


@cache
def _submasks(width: int) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, subs): the submasks of each mask m below 2^width are
    subs[ptr[m] : ptr[m + 1]], 2^popcount(m) of them, 0 first and m last.
    3^width entries, read-only, subs in a narrow dtype.

    Built one bit at a time: the list of m | bit, for m below bit, is
    that of m followed by each of its entries with bit set.
    """
    idx = np.int32 if 3 ** width < 2 ** 31 else np.int64
    ptr, subs = np.array([0, 1], dtype=idx), np.zeros(1, np.uint16 if width <= 16 else np.uint32)
    for b in range(width):
        cnt = np.diff(ptr)
        mask = np.repeat(np.arange(len(cnt), dtype=idx), cnt)  # of each entry
        at = np.arange(len(subs), dtype=idx) + ptr[mask]  # 2 ptr[m] + its place in m's list
        high = np.empty(2 * len(subs), dtype=subs.dtype)
        high[at] = subs
        high[at + cnt[mask]] = subs | (1 << b)
        ptr = np.concatenate([ptr[:-1], len(subs) + 2 * ptr])
        subs = np.concatenate([subs, high])
    ptr = ptr.astype(np.intp)
    for a in ptr, subs:
        a.flags.writeable = False
    return ptr, subs


def _subsets(rows: np.ndarray, t: int) -> np.ndarray:
    """Every t-subset of each row of a (k, s) matrix, as a (t, C(s, t) * k)
    matrix of columns: subset number j of row i sits at column j * k + i."""
    return rows.T[_combos(rows.shape[1], t)].reshape(t, -1)


def _dense_rank(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each entry of `x` among its distinct values; bits it needs."""
    rank, ptr, _ = group(x)
    return rank, max((len(ptr) - 2).bit_length(), 1)


def lex_keys(mat: np.ndarray, n: int) -> np.ndarray:
    """int64 keys of the rows of a (k, w) matrix of ids up to n, equal
    exactly when the rows are and ordered as the rows are, lexicographically.

    Columns are packed left to right while the key fits in 63 bits; before
    a column that would overflow it, the partial key is replaced by its
    dense rank among the k rows, and if they still do not fit, the
    column's ids by theirs too: ranks keep equality and order, and two
    ranks below k < 2^31 always fit, but compare only within one call.
    """
    bits = max(n.bit_length(), 1)
    key, used = mat[:, 0], bits
    for c in range(1, mat.shape[1]):
        col, width = mat[:, c], bits
        if used + width > 63:
            key, used = _dense_rank(key)
        if used + width > 63:
            col, width = _dense_rank(col)
        key = (key << width) | col
        used += width
    return key


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
    idx = {s: np.flatnonzero(sizes == s) for s in present}
    rows = {s: mat[i, :s] for s, i in idx.items()}
    doomed = np.zeros(m, dtype=bool)
    for j, t in enumerate(present[:-1]):
        larger = present[j + 1 :]
        subsets = [_subsets(rows[s], t) for s in larger]
        # the size-t rows and the t-subsets of the larger rows are keyed
        # in one call so that their keys are comparable
        keys = lex_keys(np.concatenate([rows[t].T, *subsets], axis=1).T, n)
        k = len(idx[t])
        small = np.sort(keys[:k])
        pos = np.searchsorted(small, keys[k:]).clip(max=k - 1)
        owners = [np.tile(idx[s], sub.shape[1] // len(idx[s])) for s, sub in zip(larger, subsets)]
        doomed[np.concatenate(owners)[small[pos] == keys[k:]]] = True
    return mat[~doomed], sizes[~doomed]


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
    from scratch for :func:`hypermis.core.degree_profile`, and kept up to
    date by the solvers as rows shrink and leave, so a round reads its
    degree pair without a pass over the rows.

    Row i is counted over a column mask, the columns of its ids at
    construction it still holds (all sizes[i] of them then; a row of size
    0 counts nothing).  A t-subset is numbered by the rank of its key
    among the t-subsets of all rows at construction, so only subsets of
    those rows can be counted, which holds while rows only shrink.  One
    number g serves all sizes: the t-subsets take the numbers below[t - 1]
    to below[t] - 1.  The subset of row i over the columns of submask u
    has number sub[first[i] + u]: a row of size s keeps 2^s entries of
    `sub`, one per u, of which those of the proper non-empty u are used,
    and the rows of each size lie in one block.  count[off[s] + g], for g
    below below[s - 1], is the number of counted rows of size s holding
    subset g, so the counts of the t-subsets in rows of size s are one
    run from off[s] + below[t - 1], never empty; :meth:`pairs` reads each
    run's largest count when it is asked.  A row moves by
    the proper non-empty submasks of its old and new masks, read from
    the lists of :func:`_submasks`, so its cost is their number, not 2^s
    per mask.  The rows at construction holding subset g as a proper
    subset are held[ptr[g] : ptr[g + 1]], in no set order: the sort of
    :func:`group` that numbers the t-subsets lists them too.
    """

    def __init__(self, mat: np.ndarray, sizes: np.ndarray, n: int):
        present = np.flatnonzero(np.bincount(sizes)).tolist()
        width = max(present, default=1)
        if width > MAX_NUMBERED_IDS:
            raise ValueError(f"an edge of {width} ids is too wide to number its subsets: "
                             f"at most {MAX_NUMBERED_IDS} ids")
        self.width = width
        self.first = np.zeros(len(sizes), dtype=np.intp)
        owners, end = {}, 0
        for s in present:
            owners[s] = i = np.flatnonzero(sizes == s)
            self.first[i] = end + (np.arange(len(i)) << s)
            end += len(i) << s
        self.sub = np.zeros(end, dtype=np.intp)
        # every row of size s holds 2^s - 2 proper non-empty subsets
        self.held = np.empty(sum(len(i) * ((1 << s) - 2) for s, i in owners.items() if s > 1),
                             dtype=np.intp)
        below, ptrs, at, blocks = [0], [], 0, {}
        for t in range(1, width):
            larger = [s for s in present if s > t]
            # subset j of row i of the k size-s rows is entry j * k + i of
            # their part, keyed in one call, so that ranks compare across sizes
            num, ptr, order = group(lex_keys(np.concatenate(
                [_subsets(mat[owners[s], :s], t) for s in larger], axis=1).T, n))
            row = np.concatenate([np.tile(owners[s], _combos(s, t).shape[1]) for s in larger])
            row.take(order, out=self.held[at : at + len(order)], mode="clip")  # raise mode buffers out
            ptrs.append(at + ptr[:-1])
            at += len(order)
            cuts = np.cumsum([len(owners[s]) * _combos(s, t).shape[1] for s in larger])[:-1]
            for s, part in zip(larger, np.split(num, cuts)):
                k, lo = len(owners[s]), self.first[owners[s][0]]
                runs = self.sub[lo : lo + (k << s)].reshape(k, 1 << s)
                blocks[s, t] = np.bincount(part, minlength=len(ptr) - 1)
                part += below[-1]
                runs[:, np.left_shift(1, _combos(s, t)).sum(axis=0)] = part.reshape(-1, k).T
            below.append(below[-1] + len(ptr) - 1)
        self.ptr = np.concatenate([*ptrs, [at]])
        del ptrs  # not held beside ptr while the counts are built
        self.below = np.array(below)
        self.off = np.cumsum([0, 0, 0, *below[1:]])
        self.count = np.zeros(self.off[-1], dtype=np.intp)
        for (s, t), block in blocks.items():
            lo = self.off[s] + below[t - 1]
            self.count[lo : lo + len(block)] = block

    def holders(self, rows: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k, q) for every row q at construction holding the subset of
        row rows[k] over its proper non-empty column submask masks[k] (a
        row equal to it is not listed; normalized rows hold none)."""
        return csr_gather(self.ptr, self.held, self.sub[self.first[rows] + masks])

    def recount(self, rows: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
        """Move each of the distinct rows `rows` from column mask old[i]
        to new[i] (0 for a row that leaves): uncount the subsets over the
        old columns and count those over the new, one per proper
        non-empty submask.  The submasks come from the list of the row
        width, or for wider rows from that of the low _LIST_BITS bits,
        joined with each submask of the high bits."""
        low = min(self.width, _LIST_BITS)
        ptr, subs = _submasks(low)
        masks = np.concatenate([old, new])
        rows = np.concatenate([rows, rows])
        part, base, nold = masks, self.first[rows], len(old)
        skip_first = skip_last = 1  # the proper non-empty submasks: not 0, not m
        if self.width > low:
            # a mask m wider than the lists: each submask h of its high bits
            # joins each submask of its low bits, but for h = 0 not 0, and
            # for h = m's high bits not m's low bits
            top = masks >> low
            k, h = csr_gather(*_submasks(self.width - low), top)
            masks = masks[k]
            part, top, nold = masks & ((1 << low) - 1), top[k], (k < nold).sum()
            base = base[k] + (h.astype(np.intp) << low)
            skip_first, skip_last = h == 0, h == top
        # entries lo .. lo + cnt - 1 of the list for each (row, mask, h)
        lo = ptr[part] + skip_first
        cnt = np.maximum(ptr[part + 1] - skip_last - lo, 0)
        at = np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
        found = (self.sub[np.repeat(base, cnt) + subs[at]]
                 + np.repeat(self.off[np.bitwise_count(masks)], cnt))
        split = cnt[:nold].sum()  # the old masks' entries come first
        np.subtract.at(self.count, found[:split], 1)
        np.add.at(self.count, found[split:], 1)

    def pairs(self, nsize: np.ndarray) -> dict[int, tuple[int, int]]:
        """Best (count, j) pair of each edge size s >= 2 among the counted
        rows, of which nsize[s] have size s, for the sizes with rows,
        ascending: count rows of size s share a subset of size s - j, a
        normalized degree of count^(1/j).  Among equal degrees the largest
        j wins."""
        found = {}
        for s in range(2, self.width + 1):
            if nsize[s]:
                # the counts of t = 1 .. s - 1, each a block from below[t - 1]
                top = np.maximum.reduceat(self.count[self.off[s] : self.off[s + 1]],
                                          self.below[: s - 1])
                found[s] = best_pair(zip(top.tolist(), range(s - 1, 0, -1)))
        return found

    def best(self, nsize: np.ndarray) -> tuple[int, int] | None:
        """Best pair over all sizes of :meth:`pairs`; among equal degrees
        the smallest edge size wins."""
        return best_pair(self.pairs(nsize).values())


def max_norm_degree(
    mat: np.ndarray, sizes: np.ndarray, n: int
) -> tuple[int, int] | None:
    """Best (count, j) pair over all subset degrees, None if no edge of
    size >= 2 exists: :meth:`SubsetCounts.best` counted from scratch.  No
    module of the package calls it (the solvers keep their counts); it is
    kept only for perfbench/tracer.py and the tests, until the benchmark
    drops it."""
    return SubsetCounts(mat, sizes, n).best(np.bincount(sizes))
