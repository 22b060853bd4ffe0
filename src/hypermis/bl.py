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

Edges live in the padded matrix of :mod:`hypermis._edgeops`, in a
:class:`State`: :func:`make_state` restricts the input's edge matrix to
the vertex set and normalizes it once with the full kernels, and the
state keeps that matrix read-only, as built, with one column mask per
row for the ids the row still holds.  From then on a round pays only
for the rows it touches: the rows a vertex lies in are found through a
vertex->edge incidence list, :meth:`State.cleanup` clears the bits of
the committed vertices in just the rows holding one and drops the live
rows holding a changed row (from subset holder lists, or pair holder
lists in a state that reads no degree), and delta is read from
subset-count tables moved with those rows' masks (reused as is after a
round that changed none).  Membership tests in a round are lookups, not
binary searches: the state numbers the vertex of each entry of its rows,
so the cleanup finds the committed ids of the rows it touches by reading
a flag per vertex number, and a test of rows against rows reads a flag
per row.  A round whose marks lie in no row, with no singleton edge
left, changes only the vertex set, and delta and p stay as they are; so
after such a round the coins of a block of rounds are drawn as one grid
(row r keyed as round r's own coins), the leading rounds that change no
row only get their records, and the first that does runs as usual.  The
block doubles from 1 while its rounds change no row and is cut at the
round cap and at _BLOCK_CELLS coins.  The sampling solver runs its
rounds on the same state, which numbers only the pairs of its rows,
however wide, and its inner marking runs on the induced rows, compacted.
A run on a Hypergraph checks its result once, against the input, with
:func:`hypermis.core.is_maximal_independent`.

Randomness is counter-based on (seed, round, vertex id): results are
bit-identical no matter how marking is scheduled.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from . import _edgeops as ops
from . import rng
from .core import Hypergraph, InternalInvariantError, is_maximal_independent

P_MODE_FIXED = "fixed"  # probability frozen from the input hypergraph
P_MODE_RECOMPUTE = "recompute"  # probability refreshed every round

STATUS_OK = "ok"
STATUS_ROUND_LIMIT = "round-limit-exceeded"

MAX_IDS = 63  # the widest row: its column mask is one int64, kept >= 0
_BLOCK_CELLS = 1 << 16  # coins (rounds x alive ids) drawn for one block of rounds


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


class RoundRecord:
    """Base of both solvers' round records, each a dataclass."""

    def to_json_line(self) -> str:
        """The fields, in declaration order, as one JSON object."""
        return json.dumps(vars(self))


@dataclass
class BlRoundRecord(RoundRecord):
    round: int
    marked: tuple[int, ...]
    unmarked: tuple[int, ...]
    added: tuple[int, ...]
    remaining_vertices: int
    remaining_edges: int
    delta: float
    p_used: float


@dataclass
class SolverResult:
    mis: tuple[int, ...]
    rounds: list[RoundRecord] = field(default_factory=list)
    status: str = STATUS_OK

    def trace_jsonl(self) -> str:
        return "".join(rec.to_json_line() + "\n" for rec in self.rounds)


class State:
    """Working hypergraph of both solvers, updated in place round by round.

    `rows` is the edge matrix the state was built on, read-only: row i
    holds edge i's built[i] ids sorted in its first columns (zero padded),
    and rows never move.  cols[i] is the bitmask of the columns row i
    still holds, 0 once the row is gone, and size[i] its bit count; a row
    only loses bits, and a row of size 0 is gone for good.  `mat` and
    `sizes` give the live rows compacted, `m` counts them and nsize[s]
    counts those of size s.  `alive` lists the undecided vertices, sorted.

    The rows holding id verts[k] (the vertices at construction) are
    inc[ptr[k]:ptr[k + 1]], and num[i, c] = k + 1 numbers the id in
    column c of row i as built (0 on padding; built on first use from the
    same sort), so an id test on rows is a gather from a flag array over
    vertex numbers, never a search.  An id leaves a row only when it leaves
    `alive`, and a live row holds only alive ids, so for alive ids the
    live rows among those holding all of them as built are exactly the
    live rows holding them now.

    The subset counts behind the degree pair are built on first use, over
    `rows` as built; a row that changed before then moves once from its
    full mask to its mask then, and every later change moves the row's
    counts from its old mask to its new one, and the cleanup reads their
    holder lists.  A state that reads no degree numbers only each row's
    pairs, for the cleanup (:meth:`_holding`); one with no row of two or
    more ids has no degree pair and counts nothing.
    """

    def __init__(self, n: int, alive: np.ndarray, mat: np.ndarray, sizes: np.ndarray):
        """State over normalized rows (no duplicates, none strictly inside
        another) whose ids lie in `alive`; takes ownership of `alive` and
        makes `mat` read-only.  ValueError names a row wider than
        MAX_IDS, whose column mask one int64 cannot hold."""
        if len(sizes) and sizes.max() > MAX_IDS:
            raise ValueError(f"an edge of {sizes.max()} ids is too wide for the solvers: "
                             f"at most {MAX_IDS} ids")
        mat.flags.writeable = False
        self.n = n
        self.alive = self.verts = alive
        self.rows, self.built = mat, sizes
        self.cols = np.left_shift(1, sizes) - 1
        self.size = sizes.copy()
        self.bit = np.left_shift(1, np.arange(mat.shape[1]))
        self.m = len(sizes)
        self.nsize = np.bincount(sizes, minlength=mat.shape[1] + 1)
        self._order, self.inc, self.ptr = ops.incidence(mat, sizes, alive)
        self.counts: ops.SubsetCounts | None = None
        self._pair: tuple[int, int] | None = None
        self._pair_at = -1  # the count of moves when _pair was read
        self.moves = 0  # updates that changed rows

    @property
    def mat(self) -> np.ndarray:
        return self.compact(np.flatnonzero(self.size))[0]

    @property
    def sizes(self) -> np.ndarray:
        return self.size[self.size > 0]

    @property
    def dim(self) -> int:
        """Largest live row size, 0 without rows."""
        return int(np.flatnonzero(self.nsize)[-1]) if self.m else 0

    def compact(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mat, sizes) of the rows `rows` as they are now, each row's ids
        moved to its front."""
        return ops.compact(self.rows[rows], (self.cols[rows, None] & self.bit) != 0)

    def degree_pair(self) -> tuple[int, int] | None:
        """:func:`hypermis._edgeops.max_norm_degree` of the live rows."""
        if self.counts is None:
            if not self.nsize[2:].any():
                return None  # rows only shrink, so no pair can appear
            self.counts = ops.SubsetCounts(self.rows, self.built, self.n)
            full = np.left_shift(1, self.built) - 1
            moved = np.flatnonzero(self.cols != full)
            if len(moved):
                self.counts.recount(moved, full[moved], self.cols[moved])
        if self._pair_at != self.moves:
            self._pair, self._pair_at = self.counts.best(self.nsize), self.moves
        return self._pair

    @cached_property
    def num(self) -> np.ndarray:
        """Vertex numbers of the entries of `rows` (see the class docstring)."""
        num = np.zeros(self.rows.shape, dtype=np.intp)
        at = np.empty(len(self._order), dtype=np.intp)
        at[self._order] = np.repeat(np.arange(1, len(self.verts) + 1), np.diff(self.ptr))
        num[ops.valid_mask(self.rows, self.built)] = at
        return num

    def incidences(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k, row) for every live row holding ids[k]; ids must be alive."""
        return self._incident(self.verts.searchsorted(ids))

    def _incident(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(k, row) for every live row holding the alive id verts[pos[k]]."""
        k, rows = ops.csr_gather(self.ptr, self.inc, pos)
        live = self.size[rows] > 0
        return k[live], rows[live]

    def full(self, rows: np.ndarray) -> np.ndarray:
        """The rows of the incidences `rows` of distinct ids that hold
        only those ids, ascending."""
        rows, hits = ops.distinct(rows, counts=True)
        return rows[hits == self.size[rows]]

    def _moved(self, rows: np.ndarray, old: np.ndarray, old_size: np.ndarray) -> None:
        """Move the distinct rows `rows`, live with the column masks `old`
        of old_size bits before the change, to their masks now in the
        size and subset counts."""
        size = self.size[rows]
        np.subtract.at(self.nsize, old_size, 1)
        np.add.at(self.nsize, size[size > 0], 1)
        self.m -= len(rows) - int(np.count_nonzero(size))
        if self.counts is not None and old_size.max() >= 2:  # singletons count nothing
            self.counts.recount(rows, old, self.cols[rows])
        self.moves += 1

    @cached_property
    def _pair_lists(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(first, num, ptr, held): columns a < b of row i as built hold pair
        number num[first[i] + b * (b - 1) // 2 + a], and the rows as built
        holding pair g are held[ptr[g] : ptr[g + 1]], numbered and listed
        by :func:`hypermis._edgeops.group`."""
        pairs = self.built * (self.built - 1) // 2
        first, w = np.cumsum(pairs) - pairs, self.rows.shape[1]
        ab = np.array([(a, b) for b in range(w) for a in range(b)], np.intp).reshape(-1, 2)
        row = np.repeat(np.arange(len(pairs)), pairs)
        at = np.take(ab, np.arange(len(row)) - np.repeat(first, pairs), axis=0)  # its (a, b)
        keys = ops.lex_keys(np.take(self.rows, at + (row * w)[:, None]), self.n)
        num, ptr, order = ops.group(keys)
        return first, num, ptr, row[order]

    def _holding(self, touched: np.ndarray, cols: np.ndarray, size: np.ndarray):
        """(k, q) for live rows q holding all size[k] ids of mask cols[k] of
        row touched[k]: the rows holding its one id, else those other than
        it that held its first two as built and hold the rest."""
        one, two = np.flatnonzero(size == 1), np.flatnonzero(size > 1)
        k1, q1 = self._incident(self.num[touched[one], np.bitwise_count(cols[one] - 1)] - 1)
        c = cols[two]  # a, b: the columns of its lowest set bit and of the next
        a, b = (np.bitwise_count((x & -x) - 1).astype(np.intp) for x in (c, c & (c - 1)))
        first, num, ptr, held = self._pair_lists
        k, q = ops.csr_gather(ptr, held, num[first[touched[two]] + b * (b - 1) // 2 + a])
        other = (q != touched[two[k]]) & (self.size[q] > 0)
        k, q = two[k[other]], q[other]
        # a live row holds an alive id now iff it held it as built
        ids = np.where((cols[k, None] & self.bit) != 0, self.rows[touched[k]], -1)
        holds = (ids[:, :, None] == self.rows[q][:, None, :]).any(axis=2).sum(axis=1) == size[k]
        return np.concatenate([one[k1], k[holds]]), np.concatenate([q1, q[holds]])

    def drop(self, rows: np.ndarray) -> None:
        """Remove the distinct live rows `rows`."""
        if len(rows):
            old, old_size = self.cols[rows], self.size[rows]
            self.cols[rows] = self.size[rows] = 0
            self._moved(rows, old, old_size)

    def cleanup(self, gone: np.ndarray, touched: np.ndarray):
        """Delete the sorted alive ids `gone` from every live row, given
        `touched`, the live rows holding one of them, ascending; and
        restore the normal form: of rows that became equal the first
        stays, and a row strictly containing another leaves.

        Only the touched rows change.  A changed row r can newly lie
        inside any live row, but it can newly contain or equal only
        another changed row q (an unchanged q inside r lay strictly inside
        r's old ids), and then q lies inside r; so it is enough to find,
        for each changed row, the live rows that held its ids as built
        (see above).  Returns the changed rows and those still live.
        """
        if not len(touched):
            return touched, touched
        old, old_size = self.cols[touched], self.size[touched]
        # flags over vertex numbers; padding reads number 0, never flagged
        hit = ops.flags(len(self.verts) + 1, self.verts.searchsorted(gone) + 1)
        cols = old & ~(hit[self.num[touched]] @ self.bit)
        size = np.bitwise_count(cols)
        if not (size.all() and (size < old_size).all()):
            raise InternalInvariantError("edge shrank to empty or lost no id in a cleanup")
        self.cols[touched], self.size[touched] = cols, size
        # (k, q) for rows q holding changed row touched[k], from its subset's
        # holder list if the state counts subsets, else from its pair's
        if self.counts is not None:
            k, q = self.counts.holders(touched, cols)
        else:
            k, q = self._holding(touched, cols, size)
        # q leaves if it holds r strictly, or equals r and comes after it
        held, t = self.size[q], size[k]
        doomed = ops.distinct(q[(held > t) | ((held == t) & (q > touched[k]))])
        lost = doomed[~ops.flags(len(self.size), touched)[doomed]]  # unchanged rows that leave
        moved = np.concatenate([touched, lost])
        old = np.concatenate([old, self.cols[lost]])
        old_size = np.concatenate([old_size, self.size[lost]])
        self.cols[doomed] = self.size[doomed] = 0
        self._moved(moved, old, old_size)
        return touched, touched[self.size[touched] > 0]


def vertex_array(vertex_set: Iterable[int] | None, n: int) -> np.ndarray:
    """Sorted distinct ids of `vertex_set` (all of 1..n for None) as int64;
    ValueError names an id outside 1..n, which is no vertex, or an n whose
    1..n one array cannot hold."""
    if vertex_set is None:
        try:
            ids = np.arange(1, n + 1, dtype=np.int64)
        except ValueError:  # numpy's "array is too big"
            ids = np.zeros(0, dtype=np.int64)
        if len(ids) != n:  # from n = 2^63 - 2 on, numpy's range comes out empty
            raise ValueError(f"cannot list the vertex ids 1..{n}: too many for one array")
        return ids
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
    mat, sizes = h.arrays
    if vertex_set is not None:
        inside = ops.rows_inside(mat, sizes, alive)
        mat, sizes = mat[inside], sizes[inside]
    mat, sizes = ops.prune_supersets(*ops.dedupe_rows(mat, sizes, h.n), h.n)
    return State(h.n, alive, mat, sizes)


def _round_p(state: State, cfg: BlConfig, frozen: tuple[float, float] | None):
    """Resolve (delta, p) for the round about to run."""
    delta = ops.degree_value(state.degree_pair())
    if cfg.p_override is not None:
        return delta, cfg.p_override
    if frozen is not None:
        return delta, frozen[1]
    d = state.dim if state.m else 1
    return delta, 1.0 / (2 ** (d + 1) * delta)


def _mark_round(state: State, marked: np.ndarray, p: float, delta: float, rnd: int):
    """One mark/unmark/cleanup round on `state`, in place, in which the
    alive ids `marked` (sorted) are marked.  Returns its record and the
    ids it added to the independent set."""
    alive = state.alive
    # one incidence gather: the fully marked rows, whose ids are unmarked,
    # and then the rows holding a vertex that stays marked, which the
    # cleanup shrinks
    k, rows = state.incidences(marked)
    unmarked, added, gone = marked[:0], marked, marked
    if len(rows) or state.nsize[1]:  # else no row changes
        vetoed = ops.flags(len(marked), k[ops.flags(len(state.size), state.full(rows))[rows]])
        unmarked, added = marked[vetoed], marked[~vetoed]
        _, kept = state.cleanup(added, ops.distinct(rows[~vetoed[k]]))
        single = kept[state.size[kept] == 1]
        if state.nsize[1] > len(single):  # singleton edges the state began with
            single = np.flatnonzero(state.size == 1)
        # the column of a singleton's one id is the bit count below its bit;
        # distinct: singletons are never duplicates
        victims = np.sort(state.rows[single, np.bitwise_count(state.cols[single] - 1)])
        state.drop(single)
        gone = np.concatenate([added, victims])
    state.alive = ops.without(alive, gone)
    ids = (tuple(x.tolist()) for x in (marked, unmarked, added))
    return BlRoundRecord(rnd, *ids, len(state.alive), state.m, delta, p), added


def _quiet_rounds(state: State, marks: np.ndarray, rnd: int, p: float, delta: float):
    """Run the leading rounds of a block that change no row: marks[r] marks
    the alive ids of round rnd + r.  The block follows a round, which
    leaves no singleton row, so a round changes no row when no id it
    marks lies in a live row; it commits the ids it marks first and
    leaves delta, p and the rows as they are.  Returns the records of
    those rounds, the ids they commit, and the ids that the first other
    round marks, among those still alive (None if every round is quiet)."""
    alive = state.alive
    first = marks.argmax(axis=0)  # the round that marks each id first
    hit = np.flatnonzero(marks[first, np.arange(len(alive))])
    k, _ = state.incidences(alive[hit])
    busy = int(first[hit[k]].min(initial=len(marks)))
    done = hit[first[hit] < busy]  # ids in no live row, committed before round busy
    done = done[np.argsort(first[done], kind="stable")]
    ids, records, start = alive[done], [], 0
    flat = ids.tolist()
    for r, end in enumerate(np.cumsum(np.bincount(first[done], minlength=busy)).tolist()):
        marked, start = tuple(flat[start:end]), end
        left = len(alive) - end
        records.append(BlRoundRecord(rnd + r, marked, (), marked, left, state.m, delta, p))
    gone = ops.flags(len(alive), done)
    state.alive = alive[~gone]
    return records, ids, None if busy == len(marks) else alive[marks[busy] & ~gone]


def run_bl(
    h: Hypergraph | State,
    cfg: BlConfig,
    vertex_set: Iterable[int] | None = None,
) -> SolverResult:
    """Iterate rounds until the vertex set empties or the round cap hits.

    Once the edge set is empty no coin can be vetoed, so all remaining
    vertices are committed in one final shortcut round instead of
    trickling in at rate p.  On ok the result is verified to be a
    maximal independent set of the input (restricted to `vertex_set`
    when one is given).  `h` may instead be a normalized :class:`State`
    on its own vertex set, which the run consumes; the caller checks
    that result.
    """
    state = h if isinstance(h, State) else make_state(h, vertex_set)
    vertices = state.alive
    max_rounds = cfg.max_rounds or default_max_rounds(len(state.alive))

    frozen = None
    if cfg.p_mode == P_MODE_FIXED and state.m:
        frozen = _round_p(state, cfg, None)

    key = rng.derive_key(cfg.seed, rng.TAG_BL_MARK)  # round r's coins: rng.fold(key, r)
    records: list[BlRoundRecord] = []
    added = [vertices[:0]]  # the ids each round commits
    block = 1  # rounds drawn at once: doubles while rounds change no row
    while len(state.alive) and len(records) < max_rounds:
        rnd = len(records)
        if state.m == 0:
            remaining = tuple(state.alive.tolist())
            records.append(BlRoundRecord(rnd, remaining, (), remaining, 0, 0, 0.0, 1.0))
            added.append(state.alive)
            state.alive = state.alive[:0]
            break
        delta, p = _round_p(state, cfg, frozen)
        size = min(block, max_rounds - rnd, max(_BLOCK_CELLS // len(state.alive), 1))
        if size == 1:
            marked = state.alive[rng.marks(rng.fold(key, rnd), state.alive, p)]
        else:
            marks = rng.mark_grid(key, np.arange(rnd, rnd + size), state.alive, p)
            quiet, ids, marked = _quiet_rounds(state, marks, rnd, p, delta)
            records += quiet
            added.append(ids)
            if marked is None:
                block *= 2
                continue
        moves = state.moves
        rec, ids = _mark_round(state, marked, p, delta, len(records))
        records.append(rec)
        added.append(ids)
        block = 1 if state.moves > moves else 2 * block

    status = STATUS_OK if len(state.alive) == 0 else STATUS_ROUND_LIMIT
    mis = tuple(np.sort(np.concatenate(added)).tolist())
    checked = status == STATUS_OK and isinstance(h, Hypergraph)
    if checked and not is_maximal_independent(h, mis, vertices):
        raise InternalInvariantError("marking solver produced a non-maximal set")
    return SolverResult(mis=mis, rounds=records, status=status)
