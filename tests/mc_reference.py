"""Loop-based Monte Carlo estimators and migration weights, the oracle for
the array passes in hypermis.analysis.

These are the direct transcriptions the library started from: every
trial draws a coin for every vertex in sight, every edge is tested in a
Python loop, and each migration weight is a fresh `neighborhood` call.
They share only the coins (`rng.uniform_grid`, keyed per trial and id)
and the Wilson summary with the library, so equal results mean the
library reads the same coins and combines them the same way.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from hypermis import rng
from hypermis.analysis import WeightedHypergraph, _estimate, neighborhood_hit_bound
from hypermis.core import BadArityError, Hypergraph, neighborhood, vertex_tuple


def mark_matrix(seed: int, trials: int, ids: np.ndarray, p: float) -> np.ndarray:
    """Boolean (trials, len(ids)) marks: trial t, id v is marked iff its
    counter-based uniform falls below p."""
    key = rng.derive_key(seed, rng.TAG_TRIAL)
    return rng.uniform_grid(key, np.arange(trials, dtype=np.int64), ids) < p


def migration_hypergraph(h: Hypergraph, x, j: int, k: int) -> WeightedHypergraph:
    xt = vertex_tuple(x)
    d = h.dim
    if not (1 <= j < k <= d - len(xt)):
        raise BadArityError(f"need 1 <= j < k <= {d - len(xt)}, got j={j}, k={k}")
    members = neighborhood(h, xt, k)
    candidates: set[tuple[int, ...]] = set()
    for z in members:
        candidates.update(combinations(z, k - j))
    weights: dict[tuple[int, ...], float] = {}
    for y in sorted(candidates):
        w = len(neighborhood(h, xt + y, j))
        if w > 0:
            weights[y] = float(w)
    return WeightedHypergraph(Hypergraph(h.n, list(weights)), weights)


def tail_experiment(wh: WeightedHypergraph, p: float, threshold: float, trials: int, seed: int):
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    ids = sorted({v for e in wh.base.edges for v in e})
    cols = {v: i for i, v in enumerate(ids)}
    edge_cols = [np.array([cols[v] for v in e]) for e in wh.base.edges]
    w = np.array([wh.weights[e] for e in wh.base.edges])
    marks = mark_matrix(seed, trials, np.array(ids, dtype=np.int64), p)
    s = np.zeros(trials)
    for ec, we in zip(edge_cols, w):
        s += we * marks[:, ec].all(axis=1)
    return _estimate(int((s > threshold).sum()), trials, threshold)


def estimate_unmark_given_marked(h: Hypergraph, x, p: float, trials: int, seed: int):
    if trials < 1:
        raise ValueError("trials must be >= 1")
    xt = vertex_tuple(x)
    xs = set(xt)
    if not xt:
        raise ValueError("x must be non-empty")
    if len(xt) >= h.dim:
        raise ValueError(f"|x|={len(xt)} must be < dim={h.dim}")
    touching = []
    for e in h.edges:
        if xs.issuperset(e):
            raise ValueError(f"edge {e} is contained in x")
        if xs & set(e):
            touching.append(tuple(v for v in e if v not in xs))
    ids = sorted({v for e in touching for v in e})
    if not ids:
        return _estimate(0, trials, 0.5)
    cols = {v: i for i, v in enumerate(ids)}
    marks = mark_matrix(seed, trials, np.array(ids, dtype=np.int64), p)
    event = np.zeros(trials, dtype=bool)
    for e in touching:
        event |= marks[:, [cols[v] for v in e]].all(axis=1)
    return _estimate(int(event.sum()), trials, 0.5)


def estimate_neighborhood_hit(h: Hypergraph, x, j: int, p: float, trials: int, seed: int):
    if trials < 1:
        raise ValueError("trials must be >= 1")
    xt = vertex_tuple(x)
    nj = neighborhood(h, xt, j)
    if not nj:
        raise BadArityError(f"N_{j}({xt}) is empty")
    bound = neighborhood_hit_bound(h, xt, j)
    ids = sorted({v for e in h.edges for v in e} | {v for y in nj for v in y})
    cols = {v: i for i, v in enumerate(ids)}
    marks = mark_matrix(seed, trials, np.array(ids, dtype=np.int64), p)
    unmarked = np.zeros_like(marks)
    for e in h.edges:
        ec = np.array([cols[v] for v in e])
        unmarked[np.ix_(marks[:, ec].all(axis=1), ec)] = True
    event = np.zeros(trials, dtype=bool)
    for y in nj:
        yc = np.array([cols[v] for v in y])
        event |= marks[:, yc].all(axis=1) & ~unmarked[:, yc].any(axis=1)
    return _estimate(int(event.sum()), trials, bound)
