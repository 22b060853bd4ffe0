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
from itertools import combinations
from typing import Iterable

import numpy as np

from ._edgeops import best_pair, degree_pairs, degree_value, edge_matrix, valid_mask


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
    collapses them; empty edges are rejected outright.
    """

    __slots__ = ("n", "edges")

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

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def dim(self) -> int:
        """Maximum edge size (0 for an edge-free hypergraph)."""
        return max(map(len, self.edges), default=0)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edge_sets(self) -> list[frozenset[int]]:
        return [frozenset(e) for e in self.edges]

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
    distinct = set(h.edges)
    by_size: dict[int, set[tuple[int, ...]]] = {}
    for e in distinct:
        by_size.setdefault(len(e), set()).add(e)
    sizes = sorted(by_size)
    kept = []
    for e in distinct:
        covered = False
        for s in sizes:
            if s >= len(e):
                break
            smaller = by_size[s]
            if any(sub in smaller for sub in combinations(e, s)):
                covered = True
                break
        if not covered:
            kept.append(e)
    return Hypergraph(h.n, kept)


def induce(h: Hypergraph, vs: Iterable[int]) -> Hypergraph:
    """Sub-hypergraph on `vs`: keeps exactly the edges fully inside `vs`,
    with vertex ids preserved (no renumbering)."""
    inside = set(vs)
    return Hypergraph(h.n, [e for e in h.edges if inside.issuperset(e)])


def neighborhood(h: Hypergraph, x: Iterable[int], j: int) -> list[tuple[int, ...]]:
    """All sets y of size j, disjoint from x, with x | y an edge.

    Raises BadArityError when j is outside [1, dim - |x|].
    """
    xt = vertex_tuple(x)
    if not xt:
        raise ValueError("x must be non-empty")
    if j < 1 or j > h.dim - len(xt):
        raise BadArityError(f"j={j} outside [1, {h.dim - len(xt)}] for |x|={len(xt)}")
    xs = set(xt)
    target = len(xt) + j
    out = {
        tuple(v for v in e if v not in xs)
        for e in h.edges
        if len(e) == target and xs.issubset(e)
    }
    return sorted(out)


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
    mat, sizes = edge_matrix(h.edges)
    valid = valid_mask(mat, sizes)
    ids, rank = np.unique(mat[valid], return_inverse=True)
    mat[valid] = rank + 1
    pairs = degree_pairs(mat, sizes, len(ids))
    if not pairs:
        raise NoEdgesError("no edge of size >= 2")
    delta_i = dict.fromkeys(range(2, h.dim + 1), 0.0)
    delta_i.update((i, degree_value(pair)) for i, pair in pairs.items())
    return DegreeProfile(dim=h.dim, delta_i=delta_i, delta=degree_value(best_pair(pairs.values())))


def is_independent(h: Hypergraph, s: Iterable[int]) -> bool:
    """True iff no edge is fully contained in s."""
    inside = set(s)
    return not any(inside.issuperset(e) for e in h.edges)


def is_maximal_independent(
    h: Hypergraph, s: Iterable[int], vertices: Iterable[int] | None = None
) -> bool:
    """True iff s is independent and every vertex of `vertices` (default
    1..n) outside s is blocked, i.e. adding it would complete some edge.

    For s inside `vertices` this is maximality in the sub-hypergraph
    induced on `vertices`: an edge leaving `vertices` has a vertex
    outside s, so it can only block vertices outside the range.
    """
    inside = set(s)
    blocked: set[int] = set()
    for e in h.edges:
        missing = [v for v in e if v not in inside]
        if not missing:
            return False
        if len(missing) == 1:
            blocked.add(missing[0])
    if vertices is None:
        vertices = h.vertices
    return all(v in inside or v in blocked for v in vertices)


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
