"""One marking round on a Hypergraph or a state, and a coin function that
marks given ids: the tests' handles on single rounds of :mod:`hypermis.bl`.

``bl_round`` runs one round of the solver's own round code on a fresh
state, so tests can check a round in isolation and iterate rounds by hand
against ``run_bl``; ``mark_round`` runs one on a given state with a coin
function.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from hypermis import _edgeops as ops
from hypermis.bl import BlRoundRecord, _mark_round, make_state
from hypermis.core import Hypergraph


class ForcedMarks:
    """Coin function that marks exactly the given ids (uniform 0 vs 1)."""

    def __init__(self, marked: Iterable[int]):
        self.marked = set(marked)

    def __call__(self, ids: np.ndarray) -> np.ndarray:
        return np.array([0.0 if int(v) in self.marked else 1.0 for v in ids])


def mark_round(state, p: float, coins, delta: float, rnd: int):
    """:func:`hypermis.bl._mark_round` with the alive ids whose coins,
    ids -> uniforms, fall below p marked: (record, added ids)."""
    return _mark_round(state, state.alive[coins(state.alive) < p], p, delta, rnd)


def bl_round(
    h: Hypergraph,
    p: float,
    coins,
    vertex_set: Iterable[int] | None = None,
) -> tuple[tuple[int, ...], Hypergraph, tuple[int, ...], BlRoundRecord]:
    """Run a single round on `h` restricted to `vertex_set`, normalized
    first.

    Returns (added, next_hypergraph, next_vertex_set, record).  The next
    hypergraph keeps the ambient id range; the surviving vertex set is
    returned alongside because committed vertices and singleton-cleanup
    victims leave it.
    """
    state = make_state(h, vertex_set)
    rec, _ = mark_round(state, p, coins, ops.degree_value(state.degree_pair()), 0)
    next_h = Hypergraph(h.n, ops.matrix_to_edges(state.mat, state.sizes))
    return rec.added, next_h, tuple(state.alive.tolist()), rec
