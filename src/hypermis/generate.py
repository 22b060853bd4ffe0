"""Seeded random hypergraph generators for experiments and tests.

Three families: `uniform-d` draws m distinct d-subsets uniformly,
`mixed-dims` draws edges whose sizes are uniform over a range (rejecting
any edge comparable to an earlier one, so the output is an antichain of
exactly m edges), and `linear` rejection-samples d-subsets until any two
edges share at most one vertex.  Everything is driven by the
counter-based stream, so a (spec, seed) pair always yields the same
hypergraph.

`uniform-d` keeps the first m distinct draws of `Stream.sample_ids`,
drawn in blocks by `Stream.sample_rows`, which mixes many counters at
once and hands only the windows with a repeated id or a rejected word to
sample_ids; repeated edges are ranked by row keys in `_edgeops.group`, and
InfeasibleError comes after exactly the draws a loop over sample_ids
would make.  Every family builds its Hypergraph from the edge matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, compress

import numpy as np

from . import _edgeops as ops
from . import rng
from .core import Hypergraph

KIND_UNIFORM = "uniform-d"
KIND_MIXED = "mixed-dims"
KIND_LINEAR = "linear"

_ENUM_BUDGET = 2_000_000


class InfeasibleError(ValueError):
    """The requested edge count cannot be placed under the constraints."""


@dataclass(frozen=True)
class GenSpec:
    n: int
    kind: str
    seed: int
    m: int | None = None
    edge_probability: float | None = None
    dim: int | None = None
    dim_range: tuple[int, int] | None = None

    def __post_init__(self):
        if not 1 <= self.n < 1 << 63:
            raise ValueError("n must lie in [1, 2^63): edges are held as int64 ids")
        if self.kind not in (KIND_UNIFORM, KIND_MIXED, KIND_LINEAR):
            raise ValueError(f"unknown kind {self.kind!r}")
        if (self.m is None) == (self.edge_probability is None):
            raise ValueError("exactly one of m / edge_probability is required")
        if self.m is not None and self.m < 0:
            raise ValueError("m must be >= 0")
        if self.edge_probability is not None:
            if self.kind != KIND_UNIFORM:
                raise ValueError("edge_probability only applies to uniform-d")
            if not 0.0 <= self.edge_probability <= 1.0:
                raise ValueError("edge_probability must lie in [0, 1]")
        if self.kind == KIND_MIXED:
            if self.dim_range is None:
                raise ValueError("mixed-dims requires dim_range")
            lo, hi = self.dim_range
            if not 2 <= lo <= hi <= self.n:
                raise ValueError(f"dim_range {self.dim_range} invalid for n={self.n}")
        else:
            if self.dim is None:
                raise ValueError(f"{self.kind} requires dim")
            if not 2 <= self.dim <= self.n:
                raise ValueError(f"dim={self.dim} invalid for n={self.n}")


def _comparable(e: tuple[int, ...], other: tuple[int, ...]) -> bool:
    a, b = set(e), set(other)
    return a <= b or b <= a


def gen(spec: GenSpec) -> Hypergraph:
    """Generate a normalized hypergraph for a GenSpec, deterministically:
    uniform-d and linear draw distinct edges of one size, and mixed-dims
    rejects comparable edges."""
    stream = rng.Stream(spec.seed, rng.TAG_GEN)
    if spec.kind == KIND_UNIFORM:
        rows = _gen_uniform(spec, stream)
        return Hypergraph._from_rows(spec.n, rows, np.full(len(rows), spec.dim))
    if spec.kind == KIND_MIXED:
        edges = _gen_mixed(spec, stream)
    else:
        edges = _gen_linear(spec, stream)
    return Hypergraph._from_rows(spec.n, *ops.edge_matrix(edges))


def _attempt_cap(m: int) -> int:
    """Draws a generator makes before it gives up on placing m edges is
    one more than this."""
    return 200 * m + 10_000


def _gen_uniform(spec: GenSpec, stream: rng.Stream) -> np.ndarray:
    """The edges as rows in edge order: the first m distinct draws of
    :meth:`rng.Stream.sample_ids`, or in edge_probability mode each
    d-subset with a coin below the probability, coin i for the i-th in
    lexicographic order."""
    n, d, m = spec.n, spec.dim, spec.m
    if spec.edge_probability is not None:
        total = math.comb(n, d)
        if total > _ENUM_BUDGET:
            raise InfeasibleError(
                f"edge_probability mode enumerates C({n},{d})={total} subsets"
            )
        picked = rng.uniforms(stream.key, np.arange(total)) < spec.edge_probability
        edges = compress(combinations(range(1, n + 1), d), picked.tolist())
        return np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, d)
    if m > math.comb(n, d):
        raise InfeasibleError(
            f"m={m} exceeds the {math.comb(n, d)} distinct {d}-subsets"
        )
    limit = _attempt_cap(m) + 1
    rows = np.zeros((0, d), dtype=np.int64)
    first = np.zeros(0, dtype=np.intp)  # the first draw of each distinct edge, in edge order
    while len(first) < m:
        if len(rows) == limit:
            raise InfeasibleError(f"could not place {m} distinct edges")
        more = min(max(m - len(first), len(rows) // 4), limit - len(rows))
        rows = np.concatenate([rows, stream.sample_rows(n, d, more)])
        _, ptr, order = ops.group(ops.lex_keys(rows, n))
        first = np.minimum.reduceat(order, ptr[:-1])
    if len(first) > m:  # keep the edges of the first m distinct draws
        first = first[first <= np.partition(first, m - 1)[m - 1]]
    return rows[first]


def _place(m: int, draw, clash, failure: str) -> list[tuple[int, ...]]:
    """Draw edges with `draw()` and keep each that does not `clash` with
    an edge kept before, until m are kept; InfeasibleError(failure) once
    the draws pass the attempt cap."""
    edges: list[tuple[int, ...]] = []
    attempts = 0
    cap = _attempt_cap(m)
    while len(edges) < m:
        if attempts > cap:
            raise InfeasibleError(failure)
        attempts += 1
        e = draw()
        if not any(clash(e, other) for other in edges):
            edges.append(e)
    return edges


def _gen_mixed(spec: GenSpec, stream: rng.Stream) -> list[tuple[int, ...]]:
    lo, hi = spec.dim_range
    return _place(spec.m, lambda: stream.sample_ids(spec.n, stream.randint(lo, hi)),
                  _comparable, f"could not place {spec.m} pairwise-incomparable edges")


def _gen_linear(spec: GenSpec, stream: rng.Stream) -> list[tuple[int, ...]]:
    return _place(spec.m, lambda: stream.sample_ids(spec.n, spec.dim),
                  lambda e, other: len(set(e).intersection(other)) > 1,
                  f"linear constraint saturated before placing {spec.m} edges")
