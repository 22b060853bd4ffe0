"""The Monte Carlo estimators and migration weights against the loop-based
oracle in mc_reference.py, result for result and error for error.

The estimators draw coins only for the ids an event reads, and only for
the trials that pass a gate: a trial draws its gate ids' coins, and the
rest of its coins only when some gate row (an edge's first id for lemma
1, a member of N_j(x) for lemma 2, an edge for the tail) is fully marked.
They then test all edges of a chunk of passing trials in one array pass.
The oracle draws every id in sight for all trials at once and loops over
edges.  Coins depend only on (trial, id), so the two must agree exactly,
also when the trials are cut into many chunks and the coins into many
blocks (both budgets are patched small here) and when p is so small that
most chunks have few or no passing trials.  The oracle draws every coin;
the library may skip the coins of an event that cannot happen, and never
draws one coin twice.  A tail threshold below 0 or at least the total
weight decides every trial without coins."""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import mc_reference as ref
from hypermis import analysis as an
from hypermis import rng
from hypermis.core import Hypergraph, neighborhood
from hypermis.generate import KIND_UNIFORM, GenSpec, gen

CELLS = st.sampled_from([1, 5, 64, an._CELLS])
COIN_CELLS = st.sampled_from([1, 3, 64, an._COIN_CELLS])
PS = st.sampled_from([0.005, 0.02, 0.05, 0.3, 0.5, 0.9, 1.0])
TRIALS = st.integers(1, 300)
SEEDS = st.integers(0, 2**32)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:  # BadArityError and NoEdgesError are ValueErrors
        return type(err), str(err)


def drawing(fn, *args):
    """outcome(fn, *args) and the (key, trial counter, id) of each coin it
    draws, checking that no coin is drawn twice."""
    drawn, mark_grid = [], rng.mark_grid

    def logged(key, rows, cols, p):
        drawn.extend((key, t, v) for t in rows.tolist() for v in cols.tolist())
        return mark_grid(key, rows, cols, p)

    with mock.patch.object(an.rng, "mark_grid", logged):
        got = outcome(fn, *args)
    assert len(set(drawn)) == len(drawn)
    return got, drawn


def weight_items(result):
    if isinstance(result, an.WeightedHypergraph):
        return result.base.n, result.base.edges, list(result.weights.items())
    return result


@st.composite
def instances(draw, min_edges=1, max_edges=10):
    """Edges of sizes 2-8 over a small id pool, so neighborhoods overlap;
    ids up to 2^20; repeated edges allowed."""
    n = draw(st.sampled_from([12, 300, 1 << 20]))
    pool = sorted(draw(st.sets(st.integers(1, n), min_size=4, max_size=11)))
    edge = st.lists(st.sampled_from(pool), min_size=2, max_size=8, unique=True)
    edges = draw(st.lists(edge, min_size=min_edges, max_size=max_edges))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return Hypergraph(n, edges), pool


@st.composite
def instance_and_x(draw):
    """x is part of an edge, a few pool ids, an id on no edge, or empty."""
    h, pool = draw(instances())
    kind = draw(st.sampled_from(["edge", "edge", "pool", "outside", "empty"]))
    if kind == "edge":
        e = draw(st.sampled_from(h.edges))
        x = draw(st.permutations(e))[: draw(st.integers(1, len(e) - 1))]
    elif kind == "pool":
        x = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=3))
    elif kind == "outside":
        x = [draw(st.integers(1, h.n).filter(lambda v: v not in pool))]
    else:
        x = []
    return h, tuple(x)


@st.composite
def weighted_and_threshold(draw):
    """Distinct edges with non-integer weights, and a threshold that is a
    left-to-right partial sum over all or some of them, so a total that
    rounds differently would compare the other way (matrix products
    start to round differently at about 8 edges)."""
    h, _ = draw(instances(min_edges=4, max_edges=24))
    edges = sorted(set(h.edges))
    weight = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3, 2.5]) | st.floats(0.01, 10.0)
    ws = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    wh = an.WeightedHypergraph(Hypergraph(h.n, edges), dict(zip(edges, ws)))
    every = draw(st.booleans())
    threshold = 0.0
    for e in wh.base.edges:
        if every or draw(st.booleans()):
            threshold += wh.weights[e]
    return wh, threshold


@seed(14051133)
@given(instance_and_x(), PS, TRIALS, SEEDS, CELLS, COIN_CELLS)
def test_unmark_estimate_matches_reference(case, p, trials, mc_seed, cells, coin_cells):
    h, x = case
    with mock.patch.multiple(an, _CELLS=cells, _COIN_CELLS=coin_cells):
        got, _ = drawing(an.estimate_unmark_given_marked, h, x, p, trials, mc_seed)
    assert got == outcome(ref.estimate_unmark_given_marked, h, x, p, trials, mc_seed)


@seed(14051133)
@given(instance_and_x(), st.sampled_from([1, 2]), PS, TRIALS, SEEDS, CELLS, COIN_CELLS)
def test_neighborhood_hit_matches_reference(case, j, p, trials, mc_seed, cells, coin_cells):
    h, x = case
    with mock.patch.multiple(an, _CELLS=cells, _COIN_CELLS=coin_cells):
        got, drawn = drawing(an.estimate_neighborhood_hit, h, x, j, p, trials, mc_seed)
    assert got == outcome(ref.estimate_neighborhood_hit, h, x, j, p, trials, mc_seed)
    if isinstance(got, tuple):  # an error
        return
    # the ids of N_j(x) draw for every trial; the other ids of the edges
    # through them only for the trials in which some Y is fully marked
    nj = neighborhood(h, x, j)
    gate_ids = sorted({v for y in nj for v in y})
    others = {v for e in h.edges if set(e) & set(gate_ids) for v in e} - set(gate_ids)
    marks = ref.mark_matrix(mc_seed, trials, np.array(gate_ids, dtype=np.int64), p)
    col = {v: i for i, v in enumerate(gate_ids)}
    passing = np.any([marks[:, [col[v] for v in y]].all(axis=1) for y in nj], axis=0).sum()
    assert len(drawn) <= trials * len(gate_ids) + passing * len(others)


@seed(14051133)
@given(instance_and_x(), st.sampled_from([1, 2]), st.integers(1, 3))
def test_migration_weights_match_reference(case, j, gap):
    h, x = case
    got = outcome(an.migration_hypergraph, h, x, j, j + gap)
    assert weight_items(got) == weight_items(outcome(ref.migration_hypergraph, h, x, j, j + gap))


@seed(14051133)
@given(weighted_and_threshold(), PS, TRIALS, SEEDS, CELLS, COIN_CELLS)
def test_tail_experiment_matches_reference(case, p, trials, mc_seed, cells, coin_cells):
    wh, threshold = case
    with mock.patch.multiple(an, _CELLS=cells, _COIN_CELLS=coin_cells):
        got, _ = drawing(an.tail_experiment, wh, p, threshold, trials, mc_seed)
    assert got == ref.tail_experiment(wh, p, threshold, trials, mc_seed)


def summed_weights(m):
    """m singleton edges weighted 0.1, 0.2, 0.3, 0.7, 1/3, 0.1, ..., and
    the total of the weights summed left to right."""
    ws = [(0.1, 0.2, 0.3, 0.7, 1 / 3)[i % 5] for i in range(m)]
    edges = [(v,) for v in range(1, m + 1)]
    total = 0.0
    for w in ws:
        total += w
    return an.WeightedHypergraph(Hypergraph(m, edges), dict(zip(edges, ws))), total


@pytest.mark.parametrize("m", [3, 20])
def test_tail_total_is_summed_in_edge_order(m):
    # at p = 1 every trial marks every edge, so S is the left-to-right sum
    # of all weights exactly (0.1 + 0.2 + 0.3 is 0.6000000000000001, not
    # 0.6, in that order); a pairwise sum rounds some totals the other way
    wh, total = summed_weights(m)
    assert an.tail_experiment(wh, 1.0, total, 50, seed=1).exceed_count == 0
    assert an.tail_experiment(wh, 1.0, math.nextafter(total, 0.0), 50, seed=1).exceed_count == 50
    if m == 3:
        assert an.tail_experiment(wh, 1.0, 0.6, 50, seed=1).exceed_count == 50


class CoinDrawn(Exception):
    pass


@pytest.mark.parametrize("m", [3, 20])
@pytest.mark.parametrize("p", [0.3, 1.0])
def test_tail_at_or_above_the_total_draws_no_coin(m, p):
    # no trial's S exceeds the left-to-right total of all weights, so at a
    # threshold of that total or more the result is known without coins;
    # one step below it, coins are drawn
    wh, total = summed_weights(m)
    if m == 3:
        assert total == 0.6000000000000001
    want = ref.tail_experiment(wh, p, total, 50, 7)
    with mock.patch.object(an.rng, "mark_grid", side_effect=CoinDrawn):
        assert an.tail_experiment(wh, p, total, 50, 7) == want
        assert an.tail_experiment(wh, p, math.inf, 50, 7).exceed_count == 0
        with pytest.raises(CoinDrawn):
            an.tail_experiment(wh, p, math.nextafter(total, 0.0), 50, 7)
        with pytest.raises(ValueError, match="trials"):
            an.tail_experiment(wh, p, total, 0, 7)
        with pytest.raises(ValueError, match="p must"):
            an.tail_experiment(wh, 0.0, total, 50, 7)
    below = math.nextafter(total, 0.0)
    assert an.tail_experiment(wh, p, below, 50, 7) == ref.tail_experiment(wh, p, below, 50, 7)


@pytest.mark.parametrize("p", [0.005, 0.3, 1.0])
def test_tail_below_zero(p):
    # no S is below 0, so at -1 every trial exceeds and no coin is drawn;
    # at -0.0 a trial exceeds only with some fully marked edge, the gate
    wh, _ = summed_weights(20)
    want = [ref.tail_experiment(wh, p, t, 50, 7) for t in (-1.0, -0.0)]
    assert want[0].exceed_count == 50
    with mock.patch.object(an.rng, "mark_grid", side_effect=CoinDrawn):
        assert an.tail_experiment(wh, p, -1.0, 50, 7) == want[0]
    got, drawn = drawing(an.tail_experiment, wh, p, -0.0, 50, 7)
    assert got == want[1] and drawn


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tail_memory_is_bounded_per_chunk():
    # one id and one edge per vertex: all 8192 trials at once would need
    # hundreds of MiB
    edges = [(v,) for v in range(1, 3001)]
    wh = an.WeightedHypergraph(Hypergraph(3000, edges), {e: 1.0 for e in edges})
    assert 1500.0 < len(edges)  # below the total weight, so coins are drawn
    assert traced_peak(an.tail_experiment, wh, 0.5, 1500.0, 8192, 1) < 64 * 2**20


def test_neighborhood_hit_memory_follows_the_edges_read():
    h = gen(GenSpec(n=2000, kind=KIND_UNIFORM, seed=3, m=4000, dim=3))
    x = h.edges[0][:1]
    assert traced_peak(an.estimate_neighborhood_hit, h, x, 2, 0.05, 8192, 1) < 64 * 2**20
