"""Random-marking MIS solver with synchronous rounds.

Each round marks every surviving vertex independently with probability
p, unmarks all vertices of any fully marked edge, and commits the
survivors to the independent set.  Cleanup then shrinks edges by the
committed vertices, discards edges that strictly contain another edge,
and deletes singleton edges together with their vertex (that vertex can
never join the MIS, which is exactly what makes the final set maximal).

The marking probability is p = 1 / (2^(d+1) * delta) with d the current
maximum edge size and delta the maximum normalized degree.  By default
both are recomputed each round as the hypergraph shrinks; `p_mode
"fixed"` freezes them at their initial values, matching the pseudocode
that computes them once up front.  When no edge of size >= 2 exists,
delta is taken as 1.0 so the round is still well-defined (any such round
only has singleton edges, which die in cleanup regardless of the coins).

Edges live in the padded matrix of :mod:`hypermis._edgeops` (a
:class:`State`), built by :func:`make_state`, which restricts the input
to the vertex set and normalizes it; the sampling solver runs its rounds
on the same state.  The result is checked once, against the input, with
:func:`hypermis.core.is_maximal_independent`.

Randomness is counter-based on (seed, round, vertex id): results are
bit-identical no matter how marking is scheduled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import _edgeops as ops
from . import rng
from .core import Hypergraph, InternalInvariantError, is_maximal_independent

P_MODE_FIXED = "fixed"  # probability frozen from the input hypergraph
P_MODE_RECOMPUTE = "recompute"  # probability refreshed every round

STATUS_OK = "ok"
STATUS_ROUND_LIMIT = "round-limit-exceeded"


def default_max_rounds(n: int) -> int:
    """Generous polylogarithmic round envelope: 200 * (1 + ceil(log2 n))^3."""
    return 200 * (1 + math.ceil(math.log2(max(n, 1)))) ** 3 if n > 0 else 1


@dataclass(frozen=True)
class BlConfig:
    seed: int
    p_mode: str = P_MODE_RECOMPUTE
    p_override: float | None = None
    max_rounds: int | None = None

    def __post_init__(self):
        if self.p_mode not in (P_MODE_FIXED, P_MODE_RECOMPUTE):
            raise ValueError(f"unknown p_mode {self.p_mode!r}")
        if self.p_override is not None and not 0.0 < self.p_override <= 1.0:
            raise ValueError("p_override must lie in (0, 1]")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class BlRoundRecord:
    round: int
    marked: tuple[int, ...]
    unmarked: tuple[int, ...]
    added: tuple[int, ...]
    remaining_vertices: int
    remaining_edges: int
    delta: float
    p_used: float

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "round": self.round,
                "marked": list(self.marked),
                "unmarked": list(self.unmarked),
                "added": list(self.added),
                "remaining_vertices": self.remaining_vertices,
                "remaining_edges": self.remaining_edges,
                "delta": self.delta,
                "p_used": self.p_used,
            }
        )


@dataclass
class SolverResult:
    mis: tuple[int, ...]
    rounds: list[BlRoundRecord] = field(default_factory=list)
    status: str = STATUS_OK

    def trace_jsonl(self) -> str:
        return "".join(rec.to_json_line() + "\n" for rec in self.rounds)


class KeyStream:
    """Per-round coin source: uniform per vertex id under one stream key."""

    def __init__(self, key: int):
        self.key = key

    def uniforms(self, ids: np.ndarray) -> np.ndarray:
        return rng.uniforms(self.key, ids)


class ForcedMarks:
    """Test double: marks exactly the given ids (uniform 0 vs 1)."""

    def __init__(self, marked: Iterable[int]):
        self.marked = set(marked)

    def uniforms(self, ids: np.ndarray) -> np.ndarray:
        return np.array([0.0 if int(v) in self.marked else 1.0 for v in ids])


@dataclass
class State:
    """Working hypergraph of both solvers: edge i holds the sorted ids
    mat[i, :sizes[i]] (see :mod:`hypermis._edgeops`); `alive` lists the
    vertices still undecided."""

    n: int
    alive: np.ndarray  # sorted ids, int64
    mat: np.ndarray
    sizes: np.ndarray

    @property
    def m(self) -> int:
        return len(self.sizes)


def vertex_array(vertex_set: Iterable[int] | None, n: int) -> np.ndarray:
    """Sorted distinct ids of `vertex_set` (all of 1..n for None) as int64;
    ValueError names an id outside 1..n, which is no vertex."""
    if vertex_set is None:
        return np.arange(1, n + 1, dtype=np.int64)
    ids = sorted(set(vertex_set))
    if ids and (ids[0] < 1 or ids[-1] > n):
        bad = ids[0] if ids[0] < 1 else ids[-1]
        raise ValueError(f"vertex_set id {bad} outside the vertex range [1, {n}]")
    return np.array(ids, dtype=np.int64)


def make_state(h: Hypergraph, vertex_set: Iterable[int] | None = None) -> State:
    """Normalized state of `h` restricted to `vertex_set` (all of 1..n for
    None): the edges inside it, deduplicated, with every edge that
    strictly contains another dropped."""
    alive = vertex_array(vertex_set, h.n)
    mat, sizes = ops.edge_matrix(h.edges)
    if vertex_set is not None:
        inside = np.zeros(h.n + 1, dtype=bool)
        inside[alive] = True
        leaves = (~inside[mat] & ops.valid_mask(mat, sizes)).any(axis=1)
        mat, sizes = ops.drop_rows(mat, sizes, leaves)
    mat, sizes = ops.dedupe_rows(mat, sizes)
    mat, sizes = ops.prune_supersets(mat, sizes, h.n)
    return State(n=h.n, alive=alive, mat=mat, sizes=sizes)


def _round_p(state: State, cfg: BlConfig, frozen: tuple[float, float] | None):
    """Resolve (delta, p) for the round about to run."""
    pair = ops.max_norm_degree(state.mat, state.sizes, state.n)
    delta = ops.degree_value(pair)
    if cfg.p_override is not None:
        return delta, cfg.p_override
    if frozen is not None:
        return delta, frozen[1]
    d = int(state.sizes.max()) if state.m else 1
    return delta, 1.0 / (2 ** (d + 1) * delta)


def _mark_round(state: State, p: float, stream, delta: float, rnd: int):
    """One mark/unmark/cleanup round.  Returns (next_state, record, added)."""
    alive = state.alive
    u = stream.uniforms(alive)
    markmask = u < p
    marked = alive[markmask]
    flags = np.zeros(state.n + 1, dtype=bool)
    flags[marked] = True

    if state.m:
        hits = flags[state.mat] & ops.valid_mask(state.mat, state.sizes)
        full = hits.sum(axis=1) == state.sizes
        unmark_pool = state.mat[full].ravel()
        unmarked = np.unique(unmark_pool[unmark_pool > 0])
    else:
        unmarked = np.empty(0, dtype=np.int64)

    addflags = flags.copy()
    addflags[unmarked] = False
    added = marked[addflags[marked]]

    mat, sizes = ops.remove_vertices(state.mat, state.sizes, addflags)
    if state.m and not (sizes >= 1).all():
        raise InternalInvariantError("edge shrank to empty inside a marking round")
    mat, sizes = ops.dedupe_rows(mat, sizes)
    mat, sizes = ops.prune_supersets(mat, sizes, state.n)
    single = sizes == 1
    victims = np.unique(mat[single, 0]) if single.any() else np.empty(0, dtype=np.int64)
    mat, sizes = ops.drop_rows(mat, sizes, single)

    goneflags = addflags
    goneflags[victims] = True
    next_alive = alive[~goneflags[alive]]
    nxt = State(n=state.n, alive=next_alive, mat=mat, sizes=sizes)
    rec = BlRoundRecord(
        round=rnd,
        marked=tuple(int(v) for v in marked),
        unmarked=tuple(int(v) for v in unmarked),
        added=tuple(int(v) for v in added),
        remaining_vertices=len(next_alive),
        remaining_edges=nxt.m,
        delta=delta,
        p_used=p,
    )
    return nxt, rec, added


def bl_round(
    h: Hypergraph,
    p: float,
    stream,
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
    pair = ops.max_norm_degree(state.mat, state.sizes, state.n)
    nxt, rec, added = _mark_round(state, p, stream, ops.degree_value(pair), 0)
    next_h = Hypergraph(h.n, ops.matrix_to_edges(nxt.mat, nxt.sizes))
    return (
        tuple(int(v) for v in added),
        next_h,
        tuple(int(v) for v in nxt.alive),
        rec,
    )


def run_bl(
    h: Hypergraph,
    cfg: BlConfig,
    vertex_set: Iterable[int] | None = None,
) -> SolverResult:
    """Iterate rounds until the vertex set empties or the round cap hits.

    Once the edge set is empty no coin can be vetoed, so all remaining
    vertices are committed in one final shortcut round instead of
    trickling in at rate p.  On ok the result is verified to be a
    maximal independent set of the input (restricted to `vertex_set`
    when one is given).
    """
    state = make_state(h, vertex_set)
    vertices = state.alive
    max_rounds = cfg.max_rounds or default_max_rounds(len(state.alive))

    frozen = None
    if cfg.p_mode == P_MODE_FIXED and state.m:
        frozen = _round_p(state, cfg, None)

    mis: list[int] = []
    records: list[BlRoundRecord] = []
    rnd = 0
    while len(state.alive) and rnd < max_rounds:
        if state.m == 0:
            remaining = tuple(int(v) for v in state.alive)
            mis.extend(remaining)
            records.append(
                BlRoundRecord(
                    round=rnd,
                    marked=remaining,
                    unmarked=(),
                    added=remaining,
                    remaining_vertices=0,
                    remaining_edges=0,
                    delta=0.0,
                    p_used=1.0,
                )
            )
            state.alive = state.alive[:0]
            break
        delta, p = _round_p(state, cfg, frozen)
        stream = KeyStream(rng.derive_key(cfg.seed, rng.TAG_BL_MARK, rnd))
        state, rec, added = _mark_round(state, p, stream, delta, rnd)
        mis.extend(int(v) for v in added)
        records.append(rec)
        rnd += 1

    status = STATUS_OK if len(state.alive) == 0 else STATUS_ROUND_LIMIT
    result = SolverResult(mis=tuple(sorted(mis)), rounds=records, status=status)
    if status == STATUS_OK and not is_maximal_independent(h, result.mis, vertices.tolist()):
        raise InternalInvariantError("marking solver produced a non-maximal set")
    return result
