"""Differential tests of the incremental solver state (hypermis.bl.State)
against the full-recompute oracle in full_recompute.py, round by round:
the live edge set, the alive vertices, the degree pair and the record
bytes must agree after every marking round and every sampling round.

Ids are drawn up to 2^20 (21 key bits) and edges up to dimension 8, so
cases fall on both sides of 63 // bit_length(n) ids per subset key.
"""

from __future__ import annotations

from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, seed
from hypothesis import strategies as st

import full_recompute as full
from hypermis import _edgeops as ops
from hypermis import bl, rng
from hypermis.bl import P_MODE_FIXED, P_MODE_RECOMPUTE, BlConfig, make_state
from hypermis.core import Hypergraph
from hypermis.sbl import SblConfig, sbl_round
from single_round import ForcedMarks, mark_round

WIDE_N = 2 ** 20
ROUNDS = 12


@st.composite
def hypergraphs(draw):
    """Edges over a small pool of ids drawn from 1..n, so that they
    overlap, repeat and nest, and rounds shrink them into each other."""
    n = draw(st.sampled_from([9, 300, 4096, WIDE_N]))
    dim = draw(st.integers(2, 8))
    pool = draw(st.lists(st.integers(1, n), min_size=dim, max_size=dim + 5, unique=True))
    edge = st.lists(st.sampled_from(pool), min_size=1, max_size=dim, unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=30))
    if draw(st.booleans()):  # mostly wide edges: few singletons, more rounds
        edges = [e for e in edges if len(e) > 1] or edges
    return Hypergraph(n, edges), sorted(pool)


def vertex_sets(n, pool):
    """All of 1..n (small n only: coins are drawn per vertex), the pool
    the edges come from, or a part of it that some edges leave."""
    subsets = st.sets(st.sampled_from(pool), min_size=1).map(sorted)
    return st.sampled_from([None, pool] if n <= 300 else [pool]) | subsets


def edges(mat, sizes):
    return sorted(ops.matrix_to_edges(mat, sizes))


def assert_same(state, alive, mat, sizes, reads_degrees=True):
    """The state holds the oracle's rows and alive ids and has its degree
    pair; a state that reads no degree (SBL's outer state) is checked
    through its rows, so that the check builds no subset counts in it."""
    assert edges(state.mat, state.sizes) == edges(mat, sizes)
    assert state.alive.tolist() == alive.tolist()
    assert state.m == len(sizes) and state.dim == int(sizes.max(initial=0))
    want = ops.max_norm_degree(mat, sizes, state.n)
    if reads_degrees:
        assert state.degree_pair() == want
    else:
        assert ops.max_norm_degree(state.mat, state.sizes, state.n) == want
        assert state.counts is None


def compare_bl_rounds(h, cfg, marks, vertex_set=None):
    """Run marking rounds on the incremental state and on the oracle;
    `marks(rnd, alive)` gives a coin function, None for the solver's own."""
    state = make_state(h, vertex_set)
    alive, mat, sizes = full.normalized(h, vertex_set)
    frozen = None
    if cfg.p_mode == P_MODE_FIXED and state.m:
        frozen = bl._round_p(state, cfg, None)
        assert frozen == full.round_p(h.n, mat, sizes, cfg, None)
    for rnd in range(ROUNDS):
        assert_same(state, alive, mat, sizes)
        if not state.m or not len(state.alive):
            break
        delta, p = bl._round_p(state, cfg, frozen)
        assert (delta, p) == full.round_p(h.n, mat, sizes, cfg, frozen)
        coins = marks(rnd, state.alive)
        coins = coins or partial(rng.uniforms, rng.derive_key(cfg.seed, rng.TAG_BL_MARK, rnd))
        rec, added = mark_round(state, p, coins, delta, rnd)
        alive, mat, sizes, want, want_added = full.mark_round(
            h.n, alive, mat, sizes, p, coins, delta, rnd)
        assert rec.to_json_line() == want.to_json_line()
        assert list(rec.added) == added.tolist() == want_added.tolist()
    assert_same(state, alive, mat, sizes)


@seed(1405_1133)
@given(
    hypergraphs(),
    st.sampled_from([P_MODE_FIXED, P_MODE_RECOMPUTE]),
    st.sampled_from([None, 0.3, 0.7]),
    st.booleans(),
    st.data(),
)
def test_bl_rounds_match_full_recompute(instance, mode, p_override, forced, data):
    h, pool = instance
    cfg = BlConfig(seed=data.draw(st.integers(0, 10 ** 6)), p_mode=mode, p_override=p_override)

    def marks(rnd, alive):
        if not forced:
            return None
        return ForcedMarks(data.draw(st.sets(st.sampled_from(alive.tolist()))))

    compare_bl_rounds(h, cfg, marks, data.draw(vertex_sets(h.n, pool)))


def test_delta_tie_resolves_like_full_recompute():
    # 64 edges {c, a_i, b_j, c_k} over a 4 x 4 x 4 grid: the hub c has the
    # pair (64, 3) and 64^(1/3) == 4 exactly, as do {c, a_i} with (16, 2)
    # and {c, a_i, b_j} with (4, 1).  The first of the tied pairs (in edge
    # size, then subset size order) must win, and its float is not 4.0.
    ids = iter(range(7, WIDE_N, 80_021))
    c = next(ids)
    a, b, d = ([next(ids) for _ in range(4)] for _ in range(3))
    h = Hypergraph(WIDE_N, [(c, x, y, z) for x in a for y in b for z in d])
    state = make_state(h)
    assert state.degree_pair() == ops.max_norm_degree(state.mat, state.sizes, h.n) == (64, 3)
    assert ops.degree_value(state.degree_pair()) == 64 ** (1 / 3) != 4.0
    # committing the hub leaves the grid's 3-sets, whose best pair is
    # again a tie, (16, 2) against (4, 1); committing a_0 and a_1 then
    # makes duplicates and supersets, and marking every {b_j, d_0} with
    # j >= 1 fully vetoes the round
    schedule = [{c}, set(a[:2]), set(b[1:]) | {d[0]}, set()]
    vs = [c, *a, *b, *d]
    compare_bl_rounds(h, BlConfig(seed=3), lambda rnd, alive: ForcedMarks(schedule[rnd % 4]), vs)
    compare_bl_rounds(h, BlConfig(seed=3, p_mode=P_MODE_FIXED), lambda rnd, alive: None, vs)


def grid_rows(h, cfg, vertex_set=None):
    """Run run_bl on `h` against the oracle's whole run, which draws every
    round's coins on its own: the results must agree byte for byte.
    Returns the rows (rounds) of each block of coins the solver drew."""
    drawn, draw = [], rng.mark_grid

    def mark_grid(key, rows, cols, p):
        drawn.append(rows.tolist())
        return draw(key, rows, cols, p)

    with mock.patch.object(rng, "mark_grid", mark_grid):
        got = bl.run_bl(h, cfg, vertex_set)
    want = full.run_bl(h.n, *full.normalized(h, vertex_set), cfg)
    assert (got.mis, got.status) == (want.mis, want.status)
    assert got.trace_jsonl() == want.trace_jsonl()
    return drawn


@seed(1405_1133)
@given(hypergraphs(), st.sampled_from([0.02, 0.1, 0.5]), st.sampled_from([None, 9, 60]),
       st.integers(0, 10 ** 6), st.data())
def test_bl_runs_match_full_recompute(instance, p, max_rounds, solver_seed, data):
    # whole runs, in which rounds that mark nothing are drawn in blocks
    h, pool = instance
    cfg = BlConfig(seed=solver_seed, p_override=p, max_rounds=max_rounds or 400)
    grid_rows(h, cfg, data.draw(vertex_sets(h.n, pool)))


# three short edges among 300 ids: at p = 0.001 most rounds mark no id, so
# blocks of rounds are drawn at once
SPARSE = Hypergraph(300, [(1, 2, 3), (2, 3, 4), (4, 5), (6, 7)])


def test_empty_rounds_are_drawn_in_blocks():
    drawn = grid_rows(SPARSE, BlConfig(seed=3, p_override=0.001))
    assert max(map(len, drawn)) >= 8


def test_block_stops_at_the_round_cap():
    # blocks of 1, 2, 4 and 8 rounds fill 15 of the 20 rounds; the next
    # would take 16 and is cut to the 5 left
    cfg = BlConfig(seed=3, p_override=0.0001, max_rounds=20)
    drawn = grid_rows(SPARSE, cfg)
    assert drawn == [list(range(1, 3)), list(range(3, 7)), list(range(7, 15)), list(range(15, 20))]


def test_round_zero_drops_singletons_though_it_marks_nothing():
    # a round that marks nothing changes nothing only once no singleton
    # row is left, so round 0 runs alone, whatever it marks
    h = Hypergraph(6, [(1, 2, 3), (2, 3, 4), (5,)])
    cfg = BlConfig(seed=3, p_override=0.01)
    res = bl.run_bl(h, cfg)
    first = res.rounds[0]
    assert (first.marked, first.remaining_vertices, first.remaining_edges) == ((), 5, 2)
    assert res.status == bl.STATUS_OK and 5 not in res.mis
    assert grid_rows(h, cfg)[0][0] == 1


def force(ids):
    chosen = set(ids)
    return lambda retry, alive: np.array([int(v) in chosen for v in alive], dtype=bool)


@seed(1405_1133)
@given(hypergraphs(), st.integers(2, 4), st.booleans(), st.data())
def test_chained_sbl_rounds_match_full_recompute(instance, d, forced, data):
    h, pool = instance
    cfg = SblConfig(seed=data.draw(st.integers(0, 10 ** 6)), p_override=0.5, d_cap_override=d,
                    max_retries_per_round=2)
    vertex_set = data.draw(vertex_sets(h.n, pool))
    state = make_state(h, vertex_set)
    alive, mat, sizes = full.normalized(h, vertex_set)
    for rnd in range(4):
        if forced:
            ids = alive.tolist()
            sample = force(data.draw(st.sets(st.sampled_from(ids))) if ids else ())
        else:
            sample = lambda retry, ids, rnd=rnd: rng.uniforms(  # noqa: E731
                rng.derive_key(cfg.seed, rng.TAG_SBL_SAMPLE, rnd, retry), ids) < 0.5
        blue, red, nxt, next_alive, rec = sbl_round(state, 0.5, d, cfg, rnd, sampler=sample)
        want_blue, want_red, (alive, mat, sizes), want = full.sbl_round(
            h.n, alive, mat, sizes, 0.5, d, cfg, rnd, sample)
        assert nxt is state
        assert (blue, None if red is None else tuple(red.tolist())) == (want_blue, want_red)
        assert rec.to_json_line() == want.to_json_line()
        assert tuple(next_alive.tolist()) == tuple(alive.tolist())
        assert_same(state, alive, mat, sizes, reads_degrees=False)
        if blue is None:
            break
