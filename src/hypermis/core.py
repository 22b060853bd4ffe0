"""Hypergraph representation, degree machinery, and independence checks.

Vertices are dense 1-based integer ids.  An edge is a set of ids; a
vertex set is anything iterable of ids and is canonicalized to a sorted
tuple at the boundaries.  A subset of vertices is *independent* if it
contains no edge entirely, and *maximal* if no further vertex can be
added without swallowing an edge.

The normalized degree of a set x with respect to edges of size |x|+j is
d_j(x) = |N_j(x)|^(1/j), where N_j(x) collects the ways x extends to an
edge by j fresh vertices.  Degree maxima are compared exactly via
integer cross-exponentiation (c1^(1/j1) vs c2^(1/j2) iff c1^j2 vs
c2^j1), so float ties never decide a maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _edgeops as ops


class EmptyEdgeError(ValueError):
    """An edge with no vertices was supplied (instance is unsatisfiable)."""


class BadArityError(ValueError):
    """A neighborhood arity j lies outside [1, dim - |x|]."""


class NoEdgesError(ValueError):
    """Degree quantities were requested but no edge of size >= 2 exists."""


class InternalInvariantError(RuntimeError):
    """A state the algorithms' correctness argument rules out was reached."""


def vertex_tuple(vs: Iterable[int]) -> tuple[int, ...]:
    """Canonical sorted tuple of distinct vertex ids."""
    return tuple(sorted(set(vs)))


class Hypergraph:
    """Immutable hypergraph on vertices 1..n with an explicit edge list.

    Edges are stored as sorted id tuples, the edge list itself sorted
    lexicographically.  Duplicate edges are legal until :func:`normalize`
    collapses them; empty edges are rejected outright.  The queries below
    run on :attr:`arrays`, the same edges as a padded id matrix.
    """

    __slots__ = ("n", "edges", "_arrays")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon = []
        for e in edges:
            t = vertex_tuple(e)
            if not t:
                raise EmptyEdgeError("empty edge")
            if t[0] < 1 or t[-1] > n:
                raise ValueError(f"edge {t} leaves the vertex range [1, {n}]")
            canon.append(t)
        canon.sort()
        self.n = n
        self.edges = tuple(canon)
        self._arrays = None

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (mat, sizes) of :func:`hypermis._edgeops.edge_matrix`
        (row i is edges[i]), built on first use."""
        if self._arrays is None:
            self._arrays = ops.edge_matrix(self.edges)
            for a in self._arrays:
                a.flags.writeable = False
        return self._arrays

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def dim(self) -> int:
        """Maximum edge size (0 for an edge-free hypergraph)."""
        return int(self.arrays[1].max(initial=0))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m}, dim={self.dim})"


def normalize(h: Hypergraph) -> Hypergraph:
    """Collapse duplicate edges and drop every edge strictly containing
    another edge.  The vertex set is untouched; idempotent.
    """
    mat, sizes = ops.prune_supersets(*ops.dedupe_rows(*h.arrays), h.n)
    return Hypergraph(h.n, ops.matrix_to_edges(mat, sizes))


def _ids(vs: Iterable[int]) -> np.ndarray:
    """Sorted distinct ids of `vs` as an array."""
    if not isinstance(vs, np.ndarray):
        vs = np.fromiter(vs, dtype=np.int64)
    return ops.distinct(vs)


def induce(h: Hypergraph, vs: Iterable[int]) -> Hypergraph:
    """Sub-hypergraph on `vs`: keeps exactly the edges fully inside `vs`,
    with vertex ids preserved (no renumbering)."""
    mat, sizes = h.arrays
    inside = ops.rows_inside(mat, sizes, _ids(vs))
    return Hypergraph(h.n, ops.matrix_to_edges(mat[inside], sizes[inside]))


def neighborhood(h: Hypergraph, x: Iterable[int], j: int) -> list[tuple[int, ...]]:
    """All sets y of size j, disjoint from x, with x | y an edge.

    Raises BadArityError when j is outside [1, dim - |x|].
    """
    xt = vertex_tuple(x)
    if not xt:
        raise ValueError("x must be non-empty")
    if j < 1 or j > h.dim - len(xt):
        raise BadArityError(f"j={j} outside [1, {h.dim - len(xt)}] for |x|={len(xt)}")
    mat, sizes = h.arrays
    rows = mat[sizes == len(xt) + j, : len(xt) + j]
    in_x = ops.member(rows, np.array(xt, dtype=np.int64))
    holds = in_x.sum(axis=1) == len(xt)
    ys = rows[holds][~in_x[holds]].reshape(-1, j)
    return sorted(set(map(tuple, ys.tolist())))


@dataclass(frozen=True)
class DegreeProfile:
    """Per-dimension maximum normalized degrees.

    delta_i maps each edge size i (2 <= i <= dim) to the maximum of
    |N_{i-|x|}(x)|^(1/(i-|x|)) over non-empty x with |x| < i; delta is
    the overall maximum.
    """

    dim: int
    delta_i: dict[int, float]
    delta: float


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Compute delta_i for 2 <= i <= dim and the overall delta.

    Requires at least one edge of size >= 2 (otherwise the quantities
    are undefined and NoEdgesError is raised); the input should be
    normalized so edge multiplicities do not inflate counts.  The ids
    present are relabelled to 1..k first, so memory follows the edges,
    not n.
    """
    mat, sizes = h.arrays
    valid = ops.valid_mask(mat, sizes)
    ids, rank = np.unique(mat[valid], return_inverse=True)
    ranked = np.zeros_like(mat)
    ranked[valid] = rank + 1
    pairs = ops.degree_pairs(ranked, sizes, len(ids))
    if not pairs:
        raise NoEdgesError("no edge of size >= 2")
    delta_i = dict.fromkeys(range(2, h.dim + 1), 0.0)
    delta_i.update((i, ops.degree_value(pair)) for i, pair in pairs.items())
    best = ops.degree_value(ops.best_pair(pairs.values()))
    return DegreeProfile(dim=h.dim, delta_i=delta_i, delta=best)


def is_independent(h: Hypergraph, s: Iterable[int]) -> bool:
    """True iff no edge is fully contained in s (s is maximal on no vertices)."""
    return ops.is_maximal_on(*h.arrays, _ids(s), _ids(()))


def is_maximal_independent(
    h: Hypergraph, s: Iterable[int], vertices: Iterable[int] | None = None
) -> bool:
    """True iff s is independent and every vertex of `vertices` (default
    1..n) outside s is blocked, i.e. adding it would complete some edge.

    For s inside `vertices` this is maximality in the sub-hypergraph
    induced on `vertices`: an edge leaving `vertices` has a vertex
    outside s, so it can only block vertices outside the range.
    """
    vs = np.arange(1, h.n + 1, dtype=np.int64) if vertices is None else _ids(vertices)
    return ops.is_maximal_on(*h.arrays, _ids(s), vs)


# ---------------------------------------------------------------------------
# .hg text format: '#' comment lines, an "n m" header, then one line of
# space-separated distinct vertex ids per edge.
# ---------------------------------------------------------------------------


def parse_hg(text: str) -> Hypergraph:
    """Parse .hg text.  A non-integer token, a repeated id within an edge
    or an id outside 1..n raises ValueError naming its 1-based line,
    comment lines counted."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty .hg input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise _line_error(text, 0, exc) from None
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    try:
        for ln in lines[1:]:
            ids = [int(tok) for tok in ln.split()]
            if len(ids) != len(set(ids)):
                raise ValueError(f"duplicate vertex id in edge line {ln!r}")
            edges.append(ids)
        return Hypergraph(n, edges)
    except ValueError as exc:
        bad = len(edges)  # the edge line that failed to parse
        if bad == m:  # all parsed: Hypergraph rejected an edge's range, or n (the header)
            out_of_range = (i for i, e in enumerate(edges) if n >= 0 and (min(e) < 1 or max(e) > n))
            bad = next(out_of_range, -1)
        raise _line_error(text, bad + 1, exc) from None


def _line_error(text: str, index: int, exc: ValueError) -> ValueError:
    """`exc` prefixed with the 1-based line number of the index-th
    non-comment line of `text` (0 is the header)."""
    numbers = [
        no
        for no, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    return ValueError(f"line {numbers[index]}: {exc}")


def format_hg(h: Hypergraph, comment: str | None = None) -> str:
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    out.append(f"{h.n} {h.m}")
    for e in h.edges:
        out.append(" ".join(str(v) for v in e))
    return "\n".join(out) + "\n"


def load_hg(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hg(fh.read())


def save_hg(h: Hypergraph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hg(h, comment))
