"""Property tests of the matrix kernels, and of the hypergraph queries
that run on them, against the naive oracles of conftest.

Edges run up to dimension 8 and ids mostly up to 2^20 (21 key bits), so
cases fall on both sides of 63 // bit_length(n) ids per key, where the
row keys stop being pure bit-packing and partial keys get ranked; the
key, normalize and degree tests also draw ids up to 2^62 and 2^63 - 1,
where a ranked partial key and one more id no longer fit in 63 bits and
the id columns get ranked too.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from conftest import (
    naive_degree_profile,
    naive_induce,
    naive_is_independent,
    naive_is_maximal,
    naive_neighborhood,
    naive_normalize,
)
from hypermis import _edgeops as ops
from hypermis import sbl
from hypermis.bl import BlConfig, make_state, run_bl
from hypermis.core import (
    Hypergraph,
    degree_profile,
    induce,
    is_independent,
    is_maximal_independent,
    neighborhood,
    normalize,
)
from hypermis.generate import KIND_UNIFORM, GenSpec, gen
from hypermis.sbl import SblConfig, run_sbl, sbl_round
from single_round import ForcedMarks, mark_round

WIDE_N = 2 ** 20
PAIR_N = 2 ** 40  # two ids need 82 key bits, so pair keys are ranked
TOP_NS = (2 ** 62, 2 ** 63 - 1)  # a rank of the first id and the second exceed 63 bits


@st.composite
def hypergraphs(draw, ns=(8, 300, 4096, WIDE_N)):
    """Edges over a small pool of ids drawn from 1..n, n one of `ns`, so
    edges overlap, repeat and nest."""
    n = draw(st.sampled_from(ns))
    dim = draw(st.integers(2, 8))
    pool = draw(st.lists(st.integers(1, n), min_size=dim, max_size=dim + 4, unique=True))
    edges = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=1, max_size=dim, unique=True),
            min_size=1,
            max_size=24,
        )
    )
    return Hypergraph(n, edges)


def ranks(h: Hypergraph) -> dict[int, int]:
    """The rank in 1..k of each of the k ids that occur in edges, in id order."""
    return {v: i + 1 for i, v in enumerate(sorted({v for e in h.edges for v in e}))}


def compact(h: Hypergraph) -> Hypergraph:
    """Relabel the ids that occur in edges to 1..k, keeping their order.

    Degrees do not depend on the labels, and the naive oracle enumerates
    every subset of 1..n, which only a compact id range allows.
    """
    rank = ranks(h)
    return Hypergraph(len(rank), [[rank[v] for v in e] for e in h.edges])


def kernel_delta(h: Hypergraph) -> float:
    mat, sizes = ops.edge_matrix(h.edges)
    return ops.degree_value(ops.max_norm_degree(mat, sizes, h.n))


def oracle_delta(h: Hypergraph) -> float:
    return max(naive_degree_profile(compact(h)).values(), default=1.0)


@seed(1405_1133)
@given(hypergraphs(ns=(8, 300, 4096, WIDE_N, *TOP_NS)))
# with 63-bit ids the key of a 2-subset of the 4-edge must differ from
# {3, 4}'s; at n = 2^50 the ranks of the pairs' first ids take 14 bits
# and their second ids 51 more
@example(Hypergraph(2 ** 62, [(1, 2, 4, 5), (3, 4)]))
@example(
    Hypergraph(2 ** 50, [(i, 2 ** 49) for i in range(1, 8193)] + [(8193, 2 ** 49, 2 ** 49 + 1)])
)
def test_prune_supersets_matches_normalize(h):
    assert normalize(h) == naive_normalize(h)


@seed(1405_1133)
@given(hypergraphs(ns=(8, 300, 4096, WIDE_N, *TOP_NS)))
@example(Hypergraph(2 ** 62, [(1, 2, 3, 4)]))  # one edge: delta 1
def test_max_norm_degree_matches_naive_profile(h):
    hn = normalize(h)
    assert kernel_delta(hn) == pytest.approx(oracle_delta(hn), rel=1e-12)


@seed(1405_1133)
@given(
    st.sampled_from((WIDE_N, PAIR_N, *TOP_NS)).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, 8).flatmap(
                lambda t: st.lists(
                    st.lists(st.integers(0, n) | st.integers(n - 3, n), min_size=t, max_size=t),
                    min_size=1,
                    max_size=40,
                )
            ),
        )
    ),
    st.integers(0, 3),
)
def test_row_keys_equal_exactly_when_rows_equal(case, repeats):
    # repeated rows and ids near n make ties inside the ranking passes;
    # keys compare as the rows do, lexicographically
    n, rows = case
    mat = np.array(rows + rows[:repeats], dtype=np.int64)
    keys = ops.lex_keys(mat, n)
    same_key = keys[:, None] == keys[None, :]
    same_row = (mat[:, None, :] == mat[None, :, :]).all(axis=2)
    assert (same_key == same_row).all()
    ordered = [tuple(r) for r in mat.tolist()]
    less_row = np.array([[a < b for b in ordered] for a in ordered])
    assert ((keys[:, None] < keys[None, :]) == less_row).all()


def test_ranked_keys_at_dim_5_and_n_2_20():
    # 4-subsets of 5-edges need 4 * 21 = 84 bits, past one uint64 word
    n = WIDE_N
    assert (5 - 1) * n.bit_length() > 63
    top = [n - 4, n - 3, n - 2, n - 1, n]
    edges = [
        top,  # contains the 4-edge below: pruned
        top[:4],
        [1, 2, n - 2, n - 1, n],
        [1, 3, n - 2, n - 1, n],
        [2, 3, n - 2, n - 1, n],  # shares {n-2, n-1, n} with two others
        [1, 2, 3, 4, n],
        [1, 2, 3, 4, n - 4],  # same first four ids as the edge above
    ]
    h = Hypergraph(n, edges)
    hn = normalize(h)
    assert hn == naive_normalize(h)
    assert hn.m == len(edges) - 1
    assert kernel_delta(hn) == pytest.approx(oracle_delta(hn), rel=1e-12)


@st.composite
def vertex_sets(draw, h: Hypergraph):
    """Ids of h's edges, with repeats and with ids outside 1..n."""
    extra = st.sampled_from([0, 1, h.n, h.n + 1])
    return draw(st.lists(st.sampled_from(list(ranks(h))) | extra, max_size=12))


@seed(1405_1133)
@given(hypergraphs(), st.data())
def test_is_independent_matches_naive(h, data):
    s = data.draw(vertex_sets(h))
    assert is_independent(h, s) == naive_is_independent(h, s)


@seed(1405_1133)
@given(hypergraphs(), st.data())
def test_is_maximal_independent_matches_naive(h, data):
    rank = ranks(h)
    ids = list(rank)
    # a greedy maximal set less a few ids, plus a few more, so that both
    # answers occur
    s = []
    for v in data.draw(st.permutations(ids)):
        if naive_is_independent(h, [*s, v]):
            s.append(v)
    s = s[data.draw(st.integers(0, 2)) :] + data.draw(vertex_sets(h))
    if h.n <= 300 and data.draw(st.booleans()):
        s += sorted(set(range(1, h.n + 1)) - set(ids))
    # vertices in no edge are never blocked; the oracle sweeps the rest,
    # relabelled by compact()
    isolated = {v for v in s if 1 <= v <= h.n} - set(ids)
    want = len(isolated) == h.n - len(ids) and naive_is_maximal(
        compact(h), [rank[v] for v in s if v in rank]
    )
    assert is_maximal_independent(h, s) == want
    vertices = data.draw(st.lists(st.sampled_from(ids) | st.integers(1, h.n), max_size=10))
    assert is_maximal_independent(h, s, vertices) == naive_is_maximal(h, s, vertices)


@seed(1405_1133)
@given(hypergraphs(ns=(8, 300, 4096, WIDE_N, *TOP_NS)), st.data())
def test_neighborhood_matches_naive(h, data):
    # x's ids mostly on edges, sometimes one in no edge (the first id,
    # whose rows are read, or another), up to n = 2^63 - 1
    x = data.draw(
        st.lists(st.sampled_from(list(ranks(h))) | st.integers(1, h.n), min_size=1, max_size=3,
                 unique=True)
    )
    if h.dim <= len(x):
        return
    j = data.draw(st.integers(1, h.dim - len(x)))
    assert neighborhood(h, x, j) == naive_neighborhood(h, x, j)
    assert neighborhood(h, x, j) == naive_neighborhood(h, x, j)  # from the kept index


TOP = 2 ** 63 - 1


@seed(1405_1133)
@given(hypergraphs(ns=(8, 300, 4096, WIDE_N, *TOP_NS)))
# the four largest ids side by side: no sentinel past n can end their lists
@example(Hypergraph(TOP, [(TOP - 3, TOP - 2), (TOP - 2, TOP - 1), (TOP - 1, TOP), (1, TOP)]))
def test_incidence_lists_match_brute_force(h):
    # the hypergraph's index over the ids on its edges, and a state's over
    # its vertex set, which adds ids on no edge (1 and n)
    verts, rows, ptr = h.incidence
    assert verts.tolist() == sorted(ranks(h))
    for k, v in enumerate(verts.tolist()):
        assert sorted(rows[ptr[k] : ptr[k + 1]].tolist()) == [
            i for i, e in enumerate(h.edges) if v in e
        ]
    vertex_set = sorted({1, h.n, *ranks(h)})
    state = make_state(h, vertex_set)
    built = ops.matrix_to_edges(state.rows, state.built)
    for k, v in enumerate(state.verts.tolist()):
        assert sorted(state.inc[state.ptr[k] : state.ptr[k + 1]].tolist()) == [
            i for i, e in enumerate(built) if v in e
        ]
    assert run_bl(h, BlConfig(seed=3), vertex_set=vertex_set).status == "ok"


@seed(1405_1133)
@given(hypergraphs(), st.data())
def test_induce_matches_naive(h, data):
    vs = data.draw(vertex_sets(h))
    assert induce(h, vs) == naive_induce(h, vs)


@pytest.mark.parametrize(
    "h",
    [Hypergraph(4, [(1, 2, 3)]), Hypergraph(9, [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9)])],
    ids=["one-edge", "one-size"],
)
def test_cached_arrays_are_read_only_and_kept(h):
    mat, sizes = h.arrays
    assert not mat.flags.writeable and not sizes.flags.writeable
    want = mat.copy(), sizes.copy()
    run_bl(h, BlConfig(seed=1))
    run_bl(h, BlConfig(seed=1), vertex_set=range(1, h.n))
    run_sbl(h, SblConfig(seed=2, p_override=0.5, d_cap_override=2))
    degree_profile(h)
    assert h.arrays[0] is mat and h.arrays[1] is sizes
    assert (mat == want[0]).all() and (sizes == want[1]).all()


def naive_tops(rows, counts):
    """The largest count of each table of `counts`, by counting subsets."""
    found = {}
    for s, t in counts.tables:
        tally = Counter(x for e in rows if len(e) == s for x in combinations(e, t))
        found[s, t] = max(tally.values(), default=0)
    return found


@seed(1405_1133)
@given(hypergraphs(), st.data())
def test_subset_counts_follow_shrinking_rows(h, data):
    # rows shrink, shrink to one id and leave in random steps; each
    # changed row moves from its old column mask to its new one, and the
    # counts must match a recount of the live rows each time
    mat, sizes = ops.edge_matrix(h.edges)
    counts = ops.SubsetCounts(mat, sizes, h.n)
    built = [list(e) for e in h.edges]  # the columns the masks refer to
    rows = [list(e) for e in built]
    cols = [(1 << len(e)) - 1 for e in built]
    live = list(range(len(rows)))
    for _ in range(4):
        changed = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        old = [cols[i] for i in changed]
        for i in changed:
            how = data.draw(st.sampled_from(["shrink", "single", "drop"]))
            if how == "shrink":
                rows[i] = sorted(data.draw(st.lists(st.sampled_from(rows[i]), unique=True)))
            elif how == "single":
                rows[i] = [data.draw(st.sampled_from(rows[i]))]
            else:
                rows[i] = []
            cols[i] = sum(1 << built[i].index(v) for v in rows[i])
        live = [i for i in live if rows[i]]
        if changed:
            new = [cols[i] for i in changed]
            counts.recount(*(np.array(a, dtype=np.int64) for a in (changed, old, new)))
        tops = np.maximum.reduceat(counts.count, counts.starts[:-1]).tolist()
        got = dict(zip(counts.tables, tops))
        assert got == naive_tops([rows[i] for i in live], counts)
        lm, ls = ops.edge_matrix([rows[i] for i in live])
        present = np.bincount(ls, minlength=h.dim + 1)
        assert counts.best(present) == ops.max_norm_degree(lm, ls, h.n)


@pytest.mark.parametrize("width", range(9))
def test_submask_lists_match_brute_force(width):
    # every submask of each mask once, 0 first and the mask last, each
    # entry's table the (s, t) of the mask's and its own bit counts
    ptr, subs, table = ops._submasks(width)
    assert len(subs) == 3 ** width and not subs.flags.writeable
    tables = [(s, t) for s in range(2, width + 1) for t in range(1, s)]
    for m in range(1 << width):
        got = subs[ptr[m] : ptr[m + 1]].tolist()
        assert sorted(got) == [u for u in range(1 << width) if u & ~m == 0]
        assert got[0] == 0 and got[-1] == m
        for u, tab in zip(got[1:-1], table[ptr[m] + 1 : ptr[m + 1] - 1].tolist()):
            assert tables[tab] == (m.bit_count(), u.bit_count())


def table_counts(counts):
    """The sorted non-zero counts of each table: what a count of the same
    rows gives whatever its subset numbering."""
    return {table: sorted(c for c in counts.count[lo:hi].tolist() if c)
            for table, lo, hi in zip(counts.tables, counts.starts, counts.starts[1:])}


@seed(1405_1133)
@given(st.integers(2, 14), st.data())
@example(12, None).via("rows of the widest submask list")
@example(14, None).via("rows two bits past it")
def test_recount_of_wide_rows_matches_a_fresh_count(width, data):
    # rows up to 14 ids, past the 12 bits of the widest submask list, move
    # from their full masks to arbitrary ones and back part of the way;
    # the counts must equal a count of the rows they now hold
    gen = np.random.default_rng(width)
    pool = list(range(1, 2 * width + 1))
    if data is None:  # one row of each size up to width, at random masks
        rows = [sorted(gen.choice(pool, size=s, replace=False).tolist())
                for s in range(1, width + 1)]
        masks = [[int(gen.integers(1 << len(r))) for r in rows] for _ in range(2)]
    else:
        row = st.lists(st.sampled_from(pool), min_size=1, max_size=width, unique=True).map(sorted)
        rows = data.draw(st.lists(row, min_size=1, max_size=6))
        masks = [[data.draw(st.integers(0, (1 << len(r)) - 1)) for r in rows] for _ in range(2)]
    mat, sizes = ops.edge_matrix(rows)
    counts = ops.SubsetCounts(mat, sizes, len(pool))
    old = (1 << sizes) - 1
    every = np.arange(len(rows))
    for new in (np.array(masks[0]), np.array(masks[0]) & np.array(masks[1])):
        counts.recount(every, old, new)
        old = new
        now = [[v for c, v in enumerate(r) if m >> c & 1] for r, m in zip(rows, new.tolist())]
        now = [r for r in now if r]
        lm, ls = ops.edge_matrix(now) if now else (mat[:0], sizes[:0])
        fresh = ops.SubsetCounts(lm, ls, len(pool))
        got = {k: v for k, v in table_counts(counts).items() if v}
        assert got == {k: v for k, v in table_counts(fresh).items() if v}
        assert counts.best(np.bincount(ls, minlength=width + 1)) == fresh.best(np.bincount(ls))


@seed(1405_1133)
@given(hypergraphs(ns=(WIDE_N,)), st.data())
def test_holder_lists_match_brute_force(h, data):
    # normalized rows of sizes 1-8 with ids below 2^20, so subsets of 4 or
    # more ids are keyed through ranks; the holders of a row's subset are
    # every row holding it, the row itself included, each once
    mat, sizes = normalize(h).arrays
    wide = np.flatnonzero(sizes >= 2).tolist()
    if not wide:
        return
    counts = ops.SubsetCounts(mat, sizes, h.n)
    rows = data.draw(st.lists(st.sampled_from(wide), min_size=1, max_size=6))
    masks = [data.draw(st.integers(1, (1 << int(sizes[i])) - 2)) for i in rows]
    k, q = counts.holders(np.array(rows), np.array(masks))
    edges = [set(e) for e in ops.matrix_to_edges(mat, sizes)]
    for j, (i, u) in enumerate(zip(rows, masks)):
        subset = {int(mat[i, c]) for c in range(sizes[i]) if u >> c & 1}
        want = [x for x, e in enumerate(edges) if subset <= e]
        assert sorted(q[k == j].tolist()) == want


@seed(1405_1411)
@given(hypergraphs(ns=(PAIR_N,)), st.data())
def test_pair_lists_match_brute_force(h, data):
    # normalized rows of sizes 1-8 with ids below 2^40, so pair keys take
    # lex_keys' rank path; the holders of columns a < b of a row are every
    # row holding both their ids, the row itself included, each once
    state = make_state(h, np.unique(h.arrays[0][h.arrays[0] > 0]))
    mat, sizes = state.rows, state.built
    wide = np.flatnonzero(sizes >= 2).tolist()
    if not wide:
        return
    first, num, ptr, held = state._pair_lists
    assert len(num) == sum(s * (s - 1) // 2 for s in sizes.tolist())  # flat per row
    edges = [set(e) for e in ops.matrix_to_edges(mat, sizes)]
    for i in data.draw(st.lists(st.sampled_from(wide), min_size=1, max_size=6)):
        b = data.draw(st.integers(1, int(sizes[i]) - 1))
        a = data.draw(st.integers(0, b - 1))
        g = num[first[i] + b * (b - 1) // 2 + a]
        want = [x for x, e in enumerate(edges) if {int(mat[i, a]), int(mat[i, b])} <= e]
        assert sorted(held[ptr[g] : ptr[g + 1]].tolist()) == want


@st.composite
def rows_sharing_pairs(draw):
    """Edges of 3-6 ids over a pool of 6-9 ids from 1..n, so that many
    rows hold two ids of another row but not all of them."""
    n = draw(st.sampled_from((300, PAIR_N)))
    pool = draw(st.lists(st.integers(1, n), min_size=6, max_size=9, unique=True))
    edge = st.lists(st.sampled_from(pool), min_size=3, max_size=6, unique=True)
    return Hypergraph(n, draw(st.lists(edge, min_size=1, max_size=24)))


@seed(1405_1413)
@given(rows_sharing_pairs(), st.data())
def test_pair_holding_matches_brute_force(h, data):
    # the live rows other than a row that hold every id of a non-empty
    # column mask of it: found through the incidence list of a mask's one
    # id, else through the pair list of its first two ids, then checked
    state = make_state(h, np.unique(h.arrays[0][h.arrays[0] > 0]))
    rows = data.draw(st.lists(st.integers(0, state.m - 1), min_size=1, max_size=6, unique=True))
    masks = [data.draw(st.integers(1, (1 << int(state.built[i])) - 1)) for i in rows]
    masks = np.array(masks, dtype=np.int64)
    k, q = state._holding(np.array(rows), masks, np.bitwise_count(masks))
    edges = [set(e) for e in ops.matrix_to_edges(state.rows, state.built)]
    for j, (i, u) in enumerate(zip(rows, masks.tolist())):
        subset = {int(state.rows[i, c]) for c in range(state.built[i]) if u >> c & 1}
        want = [x for x, e in enumerate(edges) if subset <= e and x != i]
        assert sorted(set(q[k == j].tolist()) - {i}) == want
        assert len(q[k == j]) == len(set(q[k == j].tolist()))


@seed(1405_1219)
@given(hypergraphs(ns=(8, 300, 4096, WIDE_N, PAIR_N)), st.data())
def test_cleanup_holders_match_with_or_without_counts(h, data):
    # a state that reads degrees finds the rows holding a changed row in
    # its subset holder lists, one that reads none in its pair holder
    # lists; the same marks must leave both with the same normalized rows
    used = np.unique(h.arrays[0][h.arrays[0] > 0])  # so wide n stays cheap
    counted, listed = make_state(h, used), make_state(h, used)
    counted.degree_pair()
    for rnd in range(4):
        if not len(counted.alive):
            break
        marks = data.draw(st.lists(st.sampled_from(counted.alive.tolist()), max_size=4))
        for state in (counted, listed):
            mark_round(state, 0.5, ForcedMarks(marks), 1.0, rnd)
        assert listed.counts is None
        assert np.array_equal(counted.cols, listed.cols)
        assert np.array_equal(counted.alive, listed.alive)
        now = Hypergraph(h.n, ops.matrix_to_edges(listed.mat, listed.sizes))
        assert normalize(now) == now


def assert_numbered(state):
    # num[i, c] is 1 + the position in verts of the id in column c of row
    # i as built, and 0 on padding
    valid = ops.valid_mask(state.rows, state.built)
    assert state.num.tolist() == np.where(valid, state.verts.searchsorted(state.rows) + 1, 0).tolist()
    assert np.array_equal(state.verts[state.num[valid] - 1], state.rows[valid])


@seed(1405_1017)
@given(hypergraphs(ns=(8, 300, 4096, WIDE_N, *TOP_NS)), st.data())
def test_vertex_numbers_are_positions_in_verts(h, data):
    # on states from make_state, with and without a vertex set (all of
    # 1..n only at small n), and on the inner states of sampling rounds
    used = np.unique(h.arrays[0][h.arrays[0] > 0]).tolist()
    parts = st.sets(st.sampled_from(used), min_size=1).map(sorted)
    vertex_set = data.draw(st.sampled_from([None, used] if h.n <= 4096 else [used]) | parts)
    state = make_state(h, vertex_set)
    inner = []

    def run_inner(s, cfg):
        assert_numbered(s)
        inner.append(s)
        return run_bl(s, cfg)

    cfg = SblConfig(seed=data.draw(st.integers(0, 99)), p_override=0.5, d_cap_override=8)
    with mock.patch.object(sbl, "run_bl", run_inner):
        for rnd in range(3):
            sbl_round(state, 0.5, 8, cfg, rnd)
    assert_numbered(state)
    assert len(inner) == 3


def test_subset_counts_memory_is_flat_per_row():
    # each row keeps 2^size subset numbers, so a few wide rows among many
    # narrow ones cost their own 2^12, not 2^12 for every row
    gen = np.random.default_rng(1405)
    narrow = np.sort(gen.choice(WIDE_N, size=(2000, 2), replace=False) + 1, axis=1)
    wide = np.sort(gen.choice(WIDE_N, size=(4, 12), replace=False) + 1, axis=1)
    mat = np.zeros((2004, 12), dtype=np.int64)
    mat[:2000, :2], mat[2000:] = narrow, wide
    sizes = np.array([2] * 2000 + [12] * 4, dtype=np.int64)
    tracemalloc.start()
    try:
        counts = ops.SubsetCounts(mat, sizes, WIDE_N)
        rows = np.arange(2000, 2004)  # the wide rows shrink to their first 6 ids
        counts.recount(rows, np.full(4, (1 << 12) - 1), np.full(4, (1 << 6) - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    sizes[2000:] = 6
    mat[2000:, 6:] = 0
    want = ops.max_norm_degree(mat, sizes, WIDE_N)
    assert counts.best(np.bincount(sizes, minlength=13)) == want


def test_one_shot_degree_profile_memory():
    # a one-shot count also lists the holders of every subset, which it
    # never reads: 2.62 MiB at peak on this instance (2.56 without lists)
    h = gen(GenSpec(n=4096, kind=KIND_UNIFORM, seed=5, m=8192, dim=3))
    tracemalloc.start()
    try:
        degree_profile(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2**20


def test_pair_lists_memory_is_flat_per_row():
    # an outer sampling state numbers C(size, 2) pairs per row, so four
    # 40-edges among 2000 2-edges cost their own 780 pairs each, not 780
    # for every row, and no 2^40 subsets
    gen = np.random.default_rng(1411)
    ids = gen.choice(WIDE_N, size=4000 + 160, replace=False) + 1
    edges = [tuple(e) for e in ids[:4000].reshape(2000, 2).tolist()]
    edges += [tuple(e) for e in ids[4000:].reshape(4, 40).tolist()]
    state = make_state(Hypergraph(WIDE_N, edges), np.sort(ids))
    assert state.m == 2004
    gone = np.sort(ids[[0, 4000, 4040, 4080, 4120]])  # from a 2-edge and each 40-edge
    touched = np.flatnonzero(ops.member(state.rows, gone).any(axis=1))
    tracemalloc.start()
    try:
        state.cleanup(gone, touched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.counts is None
    assert len(state._pair_lists[1]) == 2000 + 4 * 780
    assert peak < 2 * 2**20
    assert state.m == 2004 and sorted(state.size[touched].tolist()) == [1, 39, 39, 39, 39]


def test_late_pair_of_a_wide_row_finds_its_holders():
    # 40-edge a = 101..140 and 38-edge b = 1..30 and 130..137; deleting
    # 1..30 leaves b as 130..137, whose first two ids sit in columns 30
    # and 31 of b as built, strictly inside a, so a leaves
    a, b = tuple(range(101, 141)), (*range(1, 31), *range(130, 138))
    state = make_state(Hypergraph(PAIR_N, [a, b]), [*range(1, 31), *range(101, 141)])
    touched = np.flatnonzero(state.rows[:, 0] == 1)
    state.cleanup(np.arange(1, 31), touched)
    assert state.counts is None and state.m == 1
    assert ops.matrix_to_edges(state.mat, state.sizes) == [tuple(range(130, 138))]
