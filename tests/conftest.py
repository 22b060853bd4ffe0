"""Shared oracles and instance supplies for the test suite.

The naive_* functions are intentionally written as direct transcriptions
of the definitions (subset loops, full 2^n sweeps) so the fast library
paths are always checked against an independent route.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import settings
from hypothesis import strategies as st

from hypermis.core import Hypergraph
from hypermis.generate import (
    KIND_LINEAR,
    KIND_MIXED,
    KIND_UNIFORM,
    GenSpec,
    gen,
)

# every property test draws a fixed number of examples with its own
# @seed and never replays a stored failure, so runs are reproducible
settings.register_profile("hypermis", max_examples=60, deadline=None, database=None)
settings.load_profile("hypermis")

H0 = Hypergraph(5, [(1, 2, 3), (3, 4), (4, 5)])


@st.composite
def edge_inputs(draw):
    """(n, edges) for the Hypergraph constructor: shuffled lists of edges
    over 1..n with repeated edges and repeated ids inside an edge; n = 0
    and empty lists give edge-free inputs."""
    n = draw(st.sampled_from([0, 1, 5, 12, 2**62]))
    if not n:
        return n, []
    ids = st.integers(1, n) | st.integers(max(1, n - 3), n)
    edges = draw(st.lists(st.lists(ids, min_size=1, max_size=5), max_size=8))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return n, draw(st.permutations(edges))


def naive_is_independent(h: Hypergraph, s) -> bool:
    s = set(s)
    for e in h.edges:
        if set(e) <= s:
            return False
    return True


def naive_normalize(h: Hypergraph) -> Hypergraph:
    """Drop repeated edges and every edge strictly containing another,
    looking each smaller edge up among the subsets of each edge."""
    distinct = set(h.edges)
    by_size: dict[int, set[tuple[int, ...]]] = {}
    for e in distinct:
        by_size.setdefault(len(e), set()).add(e)
    kept = [
        e
        for e in distinct
        if not any(
            sub in by_size[s]
            for s in by_size
            if s < len(e)
            for sub in combinations(e, s)
        )
    ]
    return Hypergraph(h.n, kept)


def naive_is_maximal(h: Hypergraph, s, vertices=None) -> bool:
    s = set(s)
    if not naive_is_independent(h, s):
        return False
    for v in h.vertices if vertices is None else vertices:
        if v not in s and naive_is_independent(h, s | {v}):
            return False
    return True


def naive_neighborhood(h: Hypergraph, x, j: int) -> list[tuple[int, ...]]:
    x = set(x)
    return sorted(
        {tuple(sorted(set(e) - x)) for e in h.edges if len(e) == len(x) + j and x <= set(e)}
    )


def naive_induce(h: Hypergraph, vs) -> Hypergraph:
    vs = set(vs)
    return Hypergraph(h.n, [e for e in h.edges if set(e) <= vs])


def naive_enumerate_mis(h: Hypergraph) -> list[tuple[int, ...]]:
    out = []
    for r in range(h.n + 1):
        for s in combinations(h.vertices, r):
            if naive_is_maximal(h, s):
                out.append(s)
    return sorted(out)


def naive_degree_profile(h: Hypergraph) -> dict[int, float]:
    """delta_i via the definition: max over ALL non-empty x subset V."""
    d = max((len(e) for e in h.edges), default=0)
    edge_sets = [set(e) for e in h.edges]
    delta = {}
    for i in range(2, d + 1):
        best = 0.0
        for t in range(1, i):
            for x in combinations(h.vertices, t):
                xs = set(x)
                count = sum(1 for e in edge_sets if len(e) == i and xs <= e)
                if count:
                    best = max(best, count ** (1.0 / (i - t)))
        delta[i] = best
    return delta


def instance_stream(count: int, n_lo: int = 4, n_hi: int = 16, seed0: int = 0):
    """Deterministic mix of instances across all three generators."""
    kinds = [KIND_UNIFORM, KIND_MIXED, KIND_LINEAR]
    out = []
    i = 0
    while len(out) < count:
        n = n_lo + i % (n_hi - n_lo + 1)
        kind = kinds[i % 3]
        seed = seed0 + 1000 + i
        if kind == KIND_UNIFORM:
            d = 2 + i % 4
            if d > n:
                d = 2
            import math

            m = min(math.comb(n, d), max(2, n))
            spec = GenSpec(n=n, kind=kind, seed=seed, m=m, dim=d)
        elif kind == KIND_MIXED:
            hi = min(5, n)
            spec = GenSpec(n=n, kind=kind, seed=seed, m=max(2, n // 2), dim_range=(2, hi))
        else:
            d = 2 if i % 2 else min(3, n)
            spec = GenSpec(n=n, kind=kind, seed=seed, m=max(2, n // 3), dim=d)
        try:
            out.append(gen(spec))
        except Exception:
            pass  # infeasible corner of the cycle: skip, keep the stream deterministic
        i += 1
    return out
