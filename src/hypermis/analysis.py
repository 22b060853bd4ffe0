"""Degree potentials, concentration-bound constants, and Monte Carlo
experiments over weighted hypergraphs.

The central random object is the weighted edge polynomial
S(H,w,p) = sum_e w(e) * [e fully marked] under independent Bernoulli(p)
vertex marking.  Its conditional expectations
P(H,w,p,x) = sum_{e >= x} w(e) p^(|e|-|x|) and their maximum D(H,w,p)
drive tail bounds of the form Pr[S > k(H) * D] < p(H) with

    k(H) = (log n + 2)^(2^d - 1) * delta^(2^(d-1))
    p(H) = (2^d * ceil(log n) * m)^(d-1) * log n * (4e/(delta-1))^((delta-1)/4)

for any delta > 1.  Both constants overflow doubles quickly, so they are
computed and reported in the log2 domain.  All logarithms here are
base 2.

The potential machinery tracks per-dimension degree thresholds: with
v_dim = Delta_dim and v_i = max(Delta_i, (log n)^f(i) * v_(i+1)), the
universal threshold v_2 shrinks over stages; T_j = v_2 / (log n)^F(j-1)
and the stage counts q_j say how fast.  Two recurrences for f are
carried: the original constant-7 one and the modified one whose additive
constant is d^2 (needed once the dimension is allowed to grow).

Monte Carlo estimates come with Wilson score intervals at 99%; the
acceptance checks always compare interval endpoints, never raw point
estimates.  Trial t marks vertex v iff the counter-based uniform of
(t, v) falls below p (:func:`hypermis.rng.mark_grid` compares the raw
words), so a trial may draw its coins in any order.  Each
estimator draws them only for the vertices its event reads, and first
for a gate, a few vertices the event needs (the first vertex of each edge
for lemma 1, the members of N_j(x) for lemma 2, the edges for the tail):
a trial draws the rest of its coins only when a gate row is fully
marked, and a trial that fails its gate counts 0 without them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from . import _edgeops as ops
from . import rng
from .core import (
    BadArityError,
    Hypergraph,
    NoEdgesError,
    degree_profile,
    neighborhood,
    vertex_tuple,
)

Z99 = 2.5758293035489004  # two-sided 99% normal quantile

VARIANT_ORIGINAL = "kelsen-original"
VARIANT_MODIFIED = "modified-d2"


class WeightedHypergraph:
    """Hypergraph plus a positive weight per edge."""

    __slots__ = ("base", "weights")

    def __init__(self, base: Hypergraph, weights: Mapping[tuple[int, ...], float]):
        edges = base.edges
        if len(set(edges)) != base.m:
            raise ValueError("weighted hypergraph requires distinct edges")
        canon = {vertex_tuple(e): float(w) for e, w in weights.items()}
        for e in edges:
            if e not in canon:
                raise ValueError(f"edge {e} has no weight")
            if not canon[e] > 0:  # NaN too
                raise ValueError(f"edge {e} has weight {canon[e]}, not positive")
        self.base = base
        self.weights = {e: canon[e] for e in edges}

    @classmethod
    def _from_weights(cls, base: Hypergraph, weights: dict) -> WeightedHypergraph:
        """`weights` keyed by the edges of `base` in edge order, each a
        positive float; none of this is checked."""
        wh = cls.__new__(cls)
        wh.base, wh.weights = base, weights
        return wh

    def __repr__(self) -> str:
        return f"WeightedHypergraph({self.base!r})"


def _check_p(p: float) -> None:
    if not 0.0 < p <= 1.0:  # NaN too
        raise ValueError("p must lie in (0, 1]")


def eval_S(wh: WeightedHypergraph, coloring: Iterable[int]) -> float:
    """Realized value of the edge polynomial: total weight of edges fully
    inside the marked set."""
    inside = set(coloring)
    return sum(w for e, w in wh.weights.items() if inside.issuperset(e))


def eval_P(wh: WeightedHypergraph, p: float, x: Iterable[int]) -> float:
    """Conditional expectation of S given that x is fully marked:
    sum over edges containing x of w(e) * p^(|e|-|x|)."""
    _check_p(p)
    xt = vertex_tuple(x)
    xs = set(xt)
    return sum(
        w * p ** (len(e) - len(xt))
        for e, w in wh.weights.items()
        if xs.issubset(e)
    )


def eval_D(wh: WeightedHypergraph, p: float) -> float:
    """max over x of eval_P; only x = empty set or subsets of edges can
    attain the maximum (any other x sees no edge at all).

    One pass over the edges adds each edge's term to the total of every
    subset x of it.  A total starts from the int 0 and takes its terms in
    edge order, as eval_P's sum does, so it is eval_P(wh, p, x) to the bit.
    """
    _check_p(p)
    totals: dict[tuple[int, ...], float] = {}
    for e, w in wh.weights.items():
        for t in range(len(e) + 1):
            term = w * p ** (len(e) - t)
            for x in combinations(e, t):
                totals[x] = totals.get(x, 0) + term
    return max(totals.values(), default=0)


# ---------------------------------------------------------------------------
# Potential functions and stage counts
# ---------------------------------------------------------------------------


def f_table(d: int, variant: str) -> tuple[dict[int, int], dict[int, int]]:
    """The recurrence pair (f, F) for dimension d.

    f(i) = (i-1) * sum_{j=2}^{i-1} f(j) + const with const = 7
    (original) or d^2 (modified); F(i) = sum_{j=2}^{i} f(j), F(1) = 0.
    Equivalently F(i) = i * F(i-1) + const.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if variant == VARIANT_ORIGINAL:
        const = 7
    elif variant == VARIANT_MODIFIED:
        const = d * d
    else:
        raise ValueError(f"unknown variant {variant!r}")
    f: dict[int, int] = {}
    for i in range(2, d + 1):
        f[i] = (i - 1) * sum(f[j] for j in range(2, i)) + const
    F: dict[int, int] = {1: 0}
    for i in range(2, d + 1):
        F[i] = F[i - 1] + f[i]
        assert F[i] == i * F[i - 1] + const
    return f, F


def f_inequality_check(d: int, variant: str) -> dict[int, bool]:
    """Necessary growth condition on F: F(j) >= j * F(j-1) + 5 for each
    2 <= j <= d."""
    _, F = f_table(d, variant)
    return {j: F[j] >= j * F[j - 1] + 5 for j in range(2, d + 1)}


@dataclass(frozen=True)
class PotentialReport:
    dim: int
    variant: str
    f: dict[int, int]
    F: dict[int, int]
    v: dict[int, float]
    v_log2: dict[int, float]
    T: dict[int, float]
    T_log2: dict[int, float]
    q_log2: dict[int, float]
    lambda_n: float


def potential_report(h: Hypergraph, variant: str) -> PotentialReport:
    """Evaluate the potential ladder v_i, thresholds T_j, and stage
    counts q_j on a concrete hypergraph.

    v and T are reported both linearly (they overflow to inf for larger
    dimensions) and in log2; q_j only in log2, where
    q_j = 2^(d(d+1)) * loglog n * (log n)^(F(j-1)(j-1)+2).
    """
    n = h.n
    if n < 3:
        raise ValueError("potential quantities need n >= 3")
    prof = degree_profile(h)  # NoEdgesError when no edge of size >= 2
    d = prof.dim
    f, F = f_table(d, variant)
    L = math.log2(n)
    LL = math.log2(L)  # log2 of log2 n: both the loglog factor and the
    # exponent base's log in the formulas below

    v_log2: dict[int, float] = {}
    v_log2[d] = math.log2(prof.delta_i[d])
    for i in range(d - 1, 1, -1):
        di = prof.delta_i[i]
        direct = math.log2(di) if di > 0 else float("-inf")
        lifted = f[i] * LL + v_log2[i + 1]
        v_log2[i] = max(direct, lifted)
    v = {i: 2.0 ** lv if lv < 1024 else float("inf") for i, lv in v_log2.items()}

    T_log2 = {j: v_log2[2] - F[j - 1] * LL for j in range(2, d + 1)}
    T = {j: 2.0 ** lt if lt < 1024 else float("inf") for j, lt in T_log2.items()}
    q_log2 = {
        j: d * (d + 1) + math.log2(LL) + (F[j - 1] * (j - 1) + 2) * LL
        for j in range(2, d + 1)
    }
    lam = 2.0 * LL / L
    return PotentialReport(
        dim=d, variant=variant, f=f, F=F, v=v, v_log2=v_log2,
        T=T, T_log2=T_log2, q_log2=q_log2, lambda_n=lam,
    )


# ---------------------------------------------------------------------------
# Tail-bound constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundConstants:
    k_log2: float
    p_log2: float
    delta_param: float
    kimvu_a: dict[int, float]

    @property
    def vacuous(self) -> bool:
        """The probability bound exceeds 1, so the tail statement says
        nothing."""
        return self.p_log2 >= 0.0


def kimvu_a(r: int) -> float:
    """Constant a_r = 8^r * sqrt(r!) from the strengthened migration
    bound."""
    return 8.0 ** r * math.sqrt(math.factorial(r))


def kelsen_constants(
    h: Hypergraph, p: float, delta_param: float | None = None
) -> BoundConstants:
    """log2 of k(H) and p(H) for the tail bound
    Pr[S > k(H) * D(H,w,p)] < p(H), plus the a_r table.

    delta_param defaults to log2(n)^2, the specialization that turns the
    bound into a (log n)^(2^(d+1)) * D threshold.  The constants do not
    depend on p; it is accepted (and validated) purely so call sites can
    carry one coherent parameter set.
    """
    n, d, m = h.n, h.dim, h.m
    if n < 3:
        raise ValueError("bound constants need n >= 3")
    if d < 1 or m < 1:
        raise ValueError("bound constants need at least one edge")
    _check_p(p)
    L = math.log2(n)
    delta = L * L if delta_param is None else float(delta_param)
    if not delta > 1.0:  # NaN too
        raise ValueError("delta_param must be > 1")
    k_log2 = (2 ** d - 1) * math.log2(L + 2.0) + 2 ** (d - 1) * math.log2(delta)
    p_log2 = (
        (d - 1) * math.log2(2 ** d * math.ceil(L) * m)
        + math.log2(L)
        + ((delta - 1.0) / 4.0) * math.log2(4.0 * math.e / (delta - 1.0))
    )
    table = {r: kimvu_a(r) for r in range(1, d + 1)}
    return BoundConstants(k_log2=k_log2, p_log2=p_log2, delta_param=delta, kimvu_a=table)


def degree_increase_bound(h: Hypergraph, j: int) -> float:
    """Strengthened per-stage migration bound on the growth of d_j:
    sum over k > j of (log2 n)^(2(k-j)) * Delta_k."""
    prof = degree_profile(h)
    if not 2 <= j <= prof.dim:
        raise BadArityError(f"j={j} outside [2, {prof.dim}]")
    L = math.log2(h.n)
    return sum(
        L ** (2 * (k - j)) * prof.delta_i[k] for k in range(j + 1, prof.dim + 1)
    )


def migration_hypergraph(
    h: Hypergraph, x: Iterable[int], j: int, k: int
) -> WeightedHypergraph:
    """Weighted hypergraph of the ways size-(|x|+k) edges around x can
    shrink into size-(|x|+j) edges.

    Edges are the (k-j)-subsets Y of members of N_k(x); the weight of Y
    counts the size-(|x|+j) neighborhoods that appear once Y is fully
    committed, w(Y) = |N_j(x | Y)|.  Both come from one scan for the
    edges around x: N_j(x | Y) is {z - Y : z in N_k(x), Y <= z}, so w(Y)
    counts the distinct members that hold Y, and no candidate has
    weight zero.
    """
    xt = vertex_tuple(x)
    d = h.dim
    if not (1 <= j < k <= d - len(xt)):
        raise BadArityError(f"need 1 <= j < k <= {d - len(xt)}, got j={j}, k={k}")
    members = neighborhood(h, xt, k)
    counts = Counter(y for z in members for y in combinations(z, k - j))
    edges = sorted(counts)  # all of size k - j, so in the matrix's row order
    mat = np.array(edges, dtype=np.int64).reshape(len(edges), k - j)
    base = Hypergraph._from_rows(h.n, mat, np.full(len(edges), k - j))
    return WeightedHypergraph._from_weights(base, {y: float(counts[y]) for y in edges})


# ---------------------------------------------------------------------------
# Monte Carlo experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    trials: int
    threshold: float
    exceed_count: int
    point_estimate: float
    wilson_lower_99: float
    wilson_upper_99: float


def wilson_bounds(k: int, n: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z * z / n
    center = phat + z * z / (2.0 * n)
    rad = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    return max(0.0, (center - rad) / denom), min(1.0, (center + rad) / denom)


def chernoff_lower_tail(p: float, n: int, a: float) -> float:
    """Bound Pr[Bin(n, p) <= pn - a] <= exp(-a^2 / (2pn)) for a > 0."""
    if a <= 0:
        return 1.0
    return math.exp(-a * a / (2.0 * p * n))


def _check_trials(trials: int, p: float) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_p(p)


def _estimate(exceed: int, trials: int, threshold: float) -> TailEstimate:
    lo, hi = wilson_bounds(exceed, trials)
    return TailEstimate(
        trials=trials,
        threshold=threshold,
        exceed_count=exceed,
        point_estimate=exceed / trials,
        wilson_lower_99=lo,
        wilson_upper_99=hi,
    )


# Cells one chunk of trials may hold: trials x ids, or trials x edge
# slots (edges x width) where those are more.  A chunk's arrays take at
# most a few tens of bytes per cell, so this bounds the memory of an
# estimate whatever its trial count; coins depend only on (trial, id), so
# no result depends on it.
_CELLS = 1 << 19

# Cells of coins drawn at once.  rng.mark_grid holds two 8-byte words
# and a mark per cell, about 544 KiB at 2^15 cells, so a block
# stays in a core's L2 (2 MiB per core on the x86-64 host measured)
# through its mix passes; a whole chunk of 2^19 cells streams each pass
# from L3 at two to three times the cost per cell.  No result depends
# on it.
_COIN_CELLS = 1 << 15


def _mark_chunks(
    seed: int, trials: int, ids: np.ndarray, p: float, rows: int, gate: np.ndarray
):
    """Yield boolean (len(ids), width) mark matrices, one column per trial
    that passes the gate, in trial order: trial t marks id v iff its
    counter-based uniform falls below p.  A trial passes when some row of
    `gate`, a matrix of columns into `ids`, is fully marked; the caller's
    event must need that, as a trial left out counts 0.  `rows` is the
    most rows the caller builds from one chunk of trials.

    For each chunk, the gate's ids draw their coins for every trial, then
    the other ids draw theirs for the passing trials only, so no (trial,
    id) coin is drawn twice and a rare event costs few coins.  Both draw
    in blocks of at most _COIN_CELLS cells.  Every chunk is written into
    the same matrix, so a caller is done with one before it asks for the
    next."""
    key = rng.derive_key(seed, rng.TAG_TRIAL)
    gated = ops.distinct(gate.ravel())
    rest = np.flatnonzero(~ops.flags(len(ids), gated))
    gate_ids, rest_ids, gate = ids[gated], ids[rest], np.searchsorted(gated, gate)
    chunk = min(trials, max(1, _CELLS // max(len(ids), rows, 1)))
    gate_block = min(chunk, max(1, _COIN_CELLS // max(len(gated), 1)))
    rest_block = max(1, _COIN_CELLS // max(len(rest), 1))
    buf = np.empty((len(ids), chunk), dtype=bool)
    passing = np.empty(chunk, dtype=np.int64)
    for start in range(0, trials, chunk):
        stop, width = min(start + chunk, trials), 0
        for lo in range(start, stop, gate_block):
            counters = np.arange(lo, min(lo + gate_block, stop), dtype=np.int64)
            coins = rng.mark_grid(key, counters, gate_ids, p)
            hit = np.flatnonzero(coins[:, gate].all(axis=2).any(axis=1))
            buf[gated, width : width + len(hit)] = coins[hit].T
            passing[width : width + len(hit)] = counters[hit]
            width += len(hit)
        for lo in range(0, width if len(rest) else 0, rest_block):
            coins = rng.mark_grid(key, passing[lo : min(lo + rest_block, width)], rest_ids, p)
            buf[rest, lo : lo + len(coins)] = coins.T
        if width:
            yield buf[:, :width]


def _edge_columns(mat: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ids of the edge rows and the (edges, dim) matrix
    of each row's columns in that list.  A short row repeats its first
    column, which changes no "every column marked" test."""
    mat = mat[:, : int(sizes.max(initial=1))]
    valid = ops.valid_mask(mat, sizes)
    ids = ops.distinct(mat[valid])
    return ids, np.searchsorted(ids, np.where(valid, mat, mat[:, :1]))


def _fully_marked(marks: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(edges, chunk) flags: every vertex of the edge is marked."""
    return marks[cols].all(axis=1)


def tail_experiment(
    wh: WeightedHypergraph, p: float, threshold: float, trials: int, seed: int
) -> TailEstimate:
    """Empirical tail frequency Pr[S > threshold] under Bernoulli(p)
    marking, with Wilson 99% bounds.

    Each trial adds the weights of its fully marked edges one at a time
    in edge order; a pairwise or matrix sum can round a total differently,
    and a total equal to the threshold would then compare the other way.

    No trial's S exceeds the total of all weights summed the same way
    (weights are positive and rounding is monotone), so when that total
    is at most the threshold no coin is drawn and the count is 0.  No S
    is below 0, so below 0 every trial counts, again without coins; from
    0 on, only the trials with some fully marked edge draw every coin.
    """
    _check_trials(trials, p)
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    total = 0.0
    for weight in wh.weights.values():  # in edge order
        total += weight
    if total <= threshold:
        return _estimate(0, trials, threshold)
    if threshold < 0:
        return _estimate(trials, trials, threshold)
    ids, cols = _edge_columns(*wh.base.arrays)
    w = np.fromiter(wh.weights.values(), dtype=np.float64)
    exceed = 0
    for marks in _mark_chunks(seed, trials, ids, p, cols.size, cols):
        s = np.zeros(marks.shape[1])
        for term in _fully_marked(marks, cols) * w[:, None]:
            s += term
        exceed += int((s > threshold).sum())
    return _estimate(exceed, trials, threshold)


def estimate_unmark_given_marked(
    h: Hypergraph, x: Iterable[int], p: float, trials: int, seed: int
) -> TailEstimate:
    """Estimate Pr[some edge meeting x is fully marked | x fully marked].

    x is force-marked; the rest of the vertices flip Bernoulli(p) coins.
    This is the probability that x, once marked, gets unmarked again.
    The threshold field carries the 1/2 bound the estimate is compared
    against.
    """
    _check_trials(trials, p)
    xt = vertex_tuple(x)
    if not xt:
        raise ValueError("x must be non-empty")
    if len(xt) >= h.dim:
        raise ValueError(f"|x|={len(xt)} must be < dim={h.dim}")
    mat, sizes = h.arrays
    valid = ops.valid_mask(mat, sizes)
    in_x = ops.member(mat, np.array(xt, dtype=np.int64)) & valid
    hits = in_x.sum(axis=1)
    if (hits == sizes).any():
        row = np.argmax(hits == sizes)
        raise ValueError(f"edge {tuple(mat[row, : sizes[row]].tolist())} is contained in x")
    near = hits > 0
    ids, cols = _edge_columns(*ops.compact(mat[near], (valid & ~in_x)[near]))
    hits = 0  # a fully marked edge has its first id marked
    for marks in _mark_chunks(seed, trials, ids, p, cols.size, cols[:, :1]):
        hits += int(_fully_marked(marks, cols).any(axis=0).sum())
    return _estimate(hits, trials, 0.5)


def bl_probability(h: Hypergraph) -> float:
    """The marking solver's probability 1 / (2^(d+1) * Delta(h))."""
    return 1.0 / (2 ** (h.dim + 1) * degree_profile(h).delta)


def neighborhood_hit_bound(h: Hypergraph, x: Iterable[int], j: int) -> float:
    """Lower bound (1/4) * (eps/a)^j with eps = d_j(x)/Delta and
    a = 2^(d+1) on the probability that some member of N_j(x) is fully
    committed in one round."""
    xt = vertex_tuple(x)
    nj = neighborhood(h, xt, j)
    if not nj:
        raise BadArityError(f"N_{j}({xt}) is empty")
    eps = len(nj) ** (1.0 / j) / degree_profile(h).delta
    a = 2 ** (h.dim + 1)
    return 0.25 * (eps / a) ** j


def estimate_neighborhood_hit(
    h: Hypergraph, x: Iterable[int], j: int, p: float, trials: int, seed: int
) -> TailEstimate:
    """Estimate Pr[some Y in N_j(x) is fully marked and survives the
    unmark step] under one full marking round at probability p.

    The threshold field carries the analytical lower bound from
    :func:`neighborhood_hit_bound`, so wilson_lower_99 > threshold is the
    meaningful comparison.
    """
    _check_trials(trials, p)
    xt = vertex_tuple(x)
    bound = neighborhood_hit_bound(h, xt, j)
    nj = neighborhood(h, xt, j)  # a lookup in the index h keeps
    # only an edge through a vertex of some Y can unmark it
    mat, sizes = h.arrays
    in_nj = ops.member(mat, ops.distinct(np.ravel(nj))) & ops.valid_mask(mat, sizes)
    near = in_nj.any(axis=1)
    ids, cols = _edge_columns(mat[near], sizes[near])
    ycols = np.searchsorted(ids, np.array(nj, dtype=np.int64))
    hits = 0
    for marks in _mark_chunks(seed, trials, ids, p, cols.size, ycols):
        edge, trial = np.nonzero(_fully_marked(marks, cols))
        marks[cols[edge], trial[:, None]] = False  # unmark every fully marked edge
        hits += int(_fully_marked(marks, ycols).any(axis=0).sum())
    return _estimate(hits, trials, bound)
