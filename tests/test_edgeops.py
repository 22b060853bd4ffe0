"""Property tests of the matrix kernels against the tuple-based library
paths and the naive degree oracle.

Ids are drawn up to 2^20 (21 key bits) and edges up to dimension 8, so
cases fall on both sides of 63 // bit_length(n) ids per key, where the
subset keys stop being pure bit-packing and partial keys get ranked.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from conftest import naive_degree_profile
from hypermis import _edgeops as ops
from hypermis.core import Hypergraph, normalize

WIDE_N = 2 ** 20


@st.composite
def hypergraphs(draw):
    """Edges over a small pool of ids drawn from 1..n, so edges overlap,
    repeat and nest."""
    n = draw(st.sampled_from([8, 300, 4096, WIDE_N]))
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


def compact(h: Hypergraph) -> Hypergraph:
    """Relabel the ids that occur in edges to 1..k, keeping their order.

    Degrees do not depend on the labels, and the naive oracle enumerates
    every subset of 1..n, which only a compact id range allows.
    """
    ids = sorted({v for e in h.edges for v in e})
    rank = {v: i + 1 for i, v in enumerate(ids)}
    return Hypergraph(len(ids), [[rank[v] for v in e] for e in h.edges])


def kernel_normalize(h: Hypergraph) -> list[tuple[int, ...]]:
    mat, sizes = ops.dedupe_rows(*ops.edge_matrix(h.edges))
    mat, sizes = ops.prune_supersets(mat, sizes, h.n)
    return sorted(ops.matrix_to_edges(mat, sizes))


def kernel_delta(h: Hypergraph) -> float:
    mat, sizes = ops.edge_matrix(h.edges)
    return ops.degree_value(ops.max_norm_degree(mat, sizes, h.n))


def oracle_delta(h: Hypergraph) -> float:
    return max(naive_degree_profile(compact(h)).values(), default=1.0)


@seed(1405_1133)
@given(hypergraphs())
def test_prune_supersets_matches_normalize(h):
    assert kernel_normalize(h) == list(normalize(h).edges)


@seed(1405_1133)
@given(hypergraphs())
def test_max_norm_degree_matches_naive_profile(h):
    hn = normalize(h)
    assert kernel_delta(hn) == pytest.approx(oracle_delta(hn), rel=1e-12)


@seed(1405_1133)
@given(
    st.integers(1, 8).flatmap(
        lambda t: st.lists(
            st.lists(st.integers(0, WIDE_N), min_size=t, max_size=t), min_size=1, max_size=40
        )
    ),
    st.integers(0, 3),
)
def test_row_keys_equal_exactly_when_rows_equal(rows, repeats):
    # repeated rows make ties inside the ranking pass
    mat = np.array(rows + rows[:repeats], dtype=np.int64)
    keys = ops._row_keys(mat, WIDE_N.bit_length())
    same_key = keys[:, None] == keys[None, :]
    same_row = (mat[:, None, :] == mat[None, :, :]).all(axis=2)
    assert (same_key == same_row).all()


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
    assert kernel_normalize(h) == list(normalize(h).edges)
    assert len(kernel_normalize(h)) == len(edges) - 1
    hn = normalize(h)
    assert kernel_delta(hn) == pytest.approx(oracle_delta(hn), rel=1e-12)


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
    # rows shrink and leave in random steps; the counts, updated with the
    # changed rows only, must match a recount of the live rows each time
    mat, sizes = ops.edge_matrix(h.edges)
    counts = ops.SubsetCounts(mat, sizes, h.n)
    rows = [list(e) for e in h.edges]
    live = list(range(len(rows)))
    for _ in range(4):
        changed = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        old = [tuple(rows[i]) for i in changed]
        for i in changed:
            keep = data.draw(st.lists(st.sampled_from(rows[i]), unique=True))
            rows[i] = sorted(keep)
        live = [i for i in live if rows[i]]
        new = [tuple(rows[i]) for i in changed if rows[i]]
        for part, sign in ((old, -1), (new, 1)):
            if part:
                pm, ps = ops.edge_matrix(part)
                counts.add(pm, ps, np.full(len(part), sign))
        got = {table: int(counts.top[k]) for k, table in enumerate(counts.tables)}
        assert got == naive_tops([rows[i] for i in live], counts)
        lm, ls = ops.edge_matrix([rows[i] for i in live])
        present = np.bincount(ls, minlength=len(counts.keys) + 1)
        assert counts.best(present) == ops.max_norm_degree(lm, ls, h.n)
