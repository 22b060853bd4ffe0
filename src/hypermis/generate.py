"""Seeded random hypergraph generators for experiments and tests.

Three families: `uniform-d` draws m distinct d-subsets uniformly,
`mixed-dims` draws edges whose sizes are uniform over a range (rejecting
any edge comparable to an earlier one, so the output is an antichain of
exactly m edges), and `linear` rejection-samples d-subsets until any two
edges share at most one vertex.  Everything is driven by the
counter-based stream, so a (spec, seed) pair always yields the same
hypergraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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
        if self.n < 1:
            raise ValueError("n must be >= 1")
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
        edges = _gen_uniform(spec, stream)
    elif spec.kind == KIND_MIXED:
        edges = _gen_mixed(spec, stream)
    else:
        edges = _gen_linear(spec, stream)
    return Hypergraph(spec.n, edges)


def _gen_uniform(spec: GenSpec, stream: rng.Stream) -> list[tuple[int, ...]]:
    d = spec.dim
    if spec.edge_probability is not None:
        total = math.comb(spec.n, d)
        if total > _ENUM_BUDGET:
            raise InfeasibleError(
                f"edge_probability mode enumerates C({spec.n},{d})={total} subsets"
            )
        return [
            e
            for e in combinations(range(1, spec.n + 1), d)
            if stream.u01() < spec.edge_probability
        ]
    if spec.m > math.comb(spec.n, d):
        raise InfeasibleError(
            f"m={spec.m} exceeds the {math.comb(spec.n, d)} distinct {d}-subsets"
        )
    chosen: set[tuple[int, ...]] = set()
    attempts = 0
    cap = 200 * spec.m + 10_000
    while len(chosen) < spec.m:
        if attempts > cap:
            raise InfeasibleError(f"could not place {spec.m} distinct edges")
        attempts += 1
        chosen.add(stream.sample_ids(spec.n, d))
    return sorted(chosen)


def _gen_mixed(spec: GenSpec, stream: rng.Stream) -> list[tuple[int, ...]]:
    lo, hi = spec.dim_range
    edges: list[tuple[int, ...]] = []
    attempts = 0
    cap = 200 * spec.m + 10_000
    while len(edges) < spec.m:
        if attempts > cap:
            raise InfeasibleError(
                f"could not place {spec.m} pairwise-incomparable edges"
            )
        attempts += 1
        size = stream.randint(lo, hi)
        e = stream.sample_ids(spec.n, size)
        if any(_comparable(e, other) for other in edges):
            continue
        edges.append(e)
    return edges


def _gen_linear(spec: GenSpec, stream: rng.Stream) -> list[tuple[int, ...]]:
    d = spec.dim
    edges: list[tuple[int, ...]] = []
    attempts = 0
    cap = 200 * spec.m + 10_000
    while len(edges) < spec.m:
        if attempts > cap:
            raise InfeasibleError(
                f"linear constraint saturated before placing {spec.m} edges"
            )
        attempts += 1
        e = stream.sample_ids(spec.n, d)
        es = set(e)
        if any(len(es & set(other)) > 1 for other in edges):
            continue
        edges.append(e)
    return edges
