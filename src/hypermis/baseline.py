"""Sequential MIS baselines: a linear-time greedy pass and an exhaustive
enumerator of all maximal independent sets.

The greedy pass is the residual-phase fallback of the sampling solver;
the enumerator is the correctness oracle every randomized solver is
tested against on small instances.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import Hypergraph

ENUM_LIMIT = 20


class TooLargeError(ValueError):
    """Instance too large for exhaustive enumeration (n > 20)."""


def greedy_mis_over(
    edges: Sequence[tuple[int, ...]],
    scan: Iterable[int],
) -> tuple[int, ...]:
    """Greedy MIS over an explicit vertex scan order.

    Only vertices appearing in `scan` are considered; a vertex is added
    unless it completes some edge whose other vertices were all added
    already.  Singleton edges block their vertex from the start.
    """
    incident: dict[int, list[int]] = {}
    need = []  # vertices of e still outside the chosen set
    for idx, e in enumerate(edges):
        need.append(len(e))
        for v in e:
            incident.setdefault(v, []).append(idx)
    chosen: list[int] = []
    seen: set[int] = set()
    for v in scan:
        if v in seen:
            continue
        seen.add(v)
        if any(need[i] == 1 for i in incident.get(v, ())):
            continue
        chosen.append(v)
        for i in incident.get(v, ()):
            need[i] -= 1
    return tuple(sorted(chosen))


def greedy_mis(h: Hypergraph, order: Sequence[int]) -> tuple[int, ...]:
    """Scan `order` (a permutation of 1..n) and keep every vertex whose
    addition leaves the set independent.  The result is maximal."""
    if sorted(order) != list(h.vertices):
        raise ValueError("order must be a permutation of 1..n")
    return greedy_mis_over(h.edges, order)


def enumerate_all_mis(h: Hypergraph) -> list[tuple[int, ...]]:
    """All maximal independent sets, sorted, via a vectorized sweep over
    the 2^n subset lattice.  Refuses n > 20."""
    n = h.n
    if n > ENUM_LIMIT:
        raise TooLargeError(f"n={n} exceeds enumeration limit {ENUM_LIMIT}")
    total = 1 << n
    masks = np.arange(total, dtype=np.uint32)
    indep = np.ones(total, dtype=bool)
    for e in h.edges:
        em = np.uint32(sum(1 << (v - 1) for v in e))
        indep &= (masks & em) != em
    maximal = indep.copy()
    for v in range(n):
        # S fails maximality if v is outside S and S | {v} stays independent;
        # in halves of 2^v masks, the first lacks v and the second adds it
        maximal.reshape(-1, 2, 1 << v)[:, 0] &= ~indep.reshape(-1, 2, 1 << v)[:, 1]
    out = []
    for mask in np.nonzero(maximal)[0]:
        mask = int(mask)
        out.append(tuple(v + 1 for v in range(n) if mask >> v & 1))
    out.sort()
    return out

