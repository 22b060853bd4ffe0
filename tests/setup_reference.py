"""Loop-based instance set-up, the oracle for the array paths of
hypermis.generate and hypermis.core.format_hg.

These are the transcriptions the library started from: the uniform-d
generator draws one `Stream.sample_ids` per attempt into a set of tuples
(or one `Stream.u01` per d-subset in edge_probability mode), and the .hg
writer joins each edge's ids in a Python loop.  They share only the
stream with the library, so equal results mean the library draws the
same words and keeps the same edges.
"""

from __future__ import annotations

import math
from itertools import combinations

from hypermis import rng
from hypermis.core import Hypergraph
from hypermis.generate import GenSpec, InfeasibleError


def uniform_edges(spec: GenSpec) -> tuple[list[tuple[int, ...]], int]:
    """The sorted edges of a uniform-d spec and the number of draws made
    (0 in edge_probability mode).  Raises InfeasibleError after
    200 m + 10,000 draws, once one more has not placed m edges."""
    stream = rng.Stream(spec.seed, rng.TAG_GEN)
    d = spec.dim
    if spec.edge_probability is not None:
        edges = [
            e
            for e in combinations(range(1, spec.n + 1), d)
            if stream.u01() < spec.edge_probability
        ]
        return edges, 0
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
    return sorted(chosen), attempts


def format_hg(h: Hypergraph, comment: str | None = None) -> str:
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    out.append(f"{h.n} {h.m}")
    for e in h.edges:
        out.append(" ".join(str(v) for v in e))
    return "\n".join(out) + "\n"
