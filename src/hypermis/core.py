"""Hypergraph representation, degree machinery, and independence checks.

Vertices are dense 1-based integer ids.  An edge is a set of ids; a
vertex set is anything iterable of ids and is canonicalized to a sorted
tuple at the boundaries.  A :class:`Hypergraph` is one read-only padded
id matrix of :mod:`hypermis._edgeops`, which every query reads, and keeps
what is derived from all of it (degree profile, incidence index).  A
subset of vertices is *independent* if it contains no edge entirely, and
*maximal* if no further vertex can be added without swallowing an edge.

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
    """Immutable hypergraph on vertices 1..n, stored as one read-only
    padded id matrix, :attr:`arrays`: row i holds edge i as sorted
    distinct ids, the rows in lexicographic edge order.  Duplicate edges
    are legal until :func:`normalize` collapses them; empty edges are
    rejected outright.  :attr:`edges` (the rows as id tuples),
    :attr:`incidence` and :func:`degree_profile` are built on first read
    and kept; the queries and equality read the matrix.
    """

    __slots__ = ("n", "arrays", "_edges", "_profile", "_index")

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n >= 1 << 63:
            raise ValueError(f"vertex count must lie below 2^63 (ids are int64), got {n}")
        canon = []
        for e in edges:
            t = vertex_tuple(e)
            if not t:
                raise EmptyEdgeError("empty edge")
            if t[0] < 1 or t[-1] > n:
                raise ValueError(f"edge {t} leaves the vertex range [1, {n}]")
            canon.append(t)
        h = self._from_rows(n, *ops.edge_matrix(canon))
        self.n, self.arrays = n, h.arrays
        self._edges = self._profile = self._index = None

    @classmethod
    def _from_rows(cls, n: int, mat: np.ndarray, sizes: np.ndarray) -> Hypergraph:
        """The hypergraph of the rows of a padded id matrix (the layout of
        :attr:`arrays`), each row sorted, its ids distinct and inside 1..n;
        none of this is checked.  The rows are sorted into edge order,
        unless they are in it already, and kept, read-only, as
        :attr:`arrays`."""
        width = int(sizes.max(initial=1))
        if mat.shape[1] != width:  # a copy, so the wider matrix is not kept alive
            mat = np.ascontiguousarray(mat[:, :width])
        if len(sizes) > 1:
            keys = ops.lex_keys(mat, n)
            if (keys[1:] < keys[:-1]).any():
                order = np.argsort(keys)
                mat, sizes = mat[order], sizes[order]
        mat.flags.writeable = sizes.flags.writeable = False
        h = cls.__new__(cls)
        h.n, h.arrays = n, (mat, sizes)
        h._edges = h._profile = h._index = None
        return h

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The rows of :attr:`arrays` as id tuples, built on first read."""
        if self._edges is None:
            self._edges = tuple(ops.matrix_to_edges(*self.arrays))
        return self._edges

    @property
    def incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(verts, rows, ptr): the rows holding id verts[k] are rows[ptr[k] : ptr[k + 1]]."""
        if self._index is None:
            verts = ops.distinct(self.arrays[0][self.arrays[0] > 0])  # 0 pads
            self._index = (verts, *ops.incidence(*self.arrays, verts)[1:])
        return self._index

    @property
    def m(self) -> int:
        return len(self.arrays[1])

    @property
    def dim(self) -> int:
        """Maximum edge size (0 for an edge-free hypergraph)."""
        return int(self.arrays[1].max(initial=0))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    # The matrix determines the sizes: ids are >= 1 and the padding is 0.
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and np.array_equal(self.arrays[0], other.arrays[0])
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arrays[0].tobytes()))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m}, dim={self.dim})"


def normalize(h: Hypergraph) -> Hypergraph:
    """Collapse duplicate edges and drop every edge strictly containing
    another edge.  The vertex set is untouched; idempotent.
    """
    return Hypergraph._from_rows(h.n, *ops.prune_supersets(*ops.dedupe_rows(*h.arrays, h.n), h.n))


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _ids(vs: Iterable[int]) -> tuple[np.ndarray, set[int]]:
    """Sorted distinct ids of `vs` as an int64 array, and the set of those
    ids that int64 cannot hold (no edge holds them either)."""
    if isinstance(vs, np.ndarray):
        return ops.distinct(vs), set()
    vs = list(vs)
    try:
        return ops.distinct(np.fromiter(vs, dtype=np.int64, count=len(vs))), set()
    except OverflowError:
        wide = {v for v in vs if not _INT64_MIN <= v <= _INT64_MAX}
        return ops.distinct(np.array([v for v in vs if v not in wide], dtype=np.int64)), wide


def induce(h: Hypergraph, vs: Iterable[int]) -> Hypergraph:
    """Sub-hypergraph on `vs`: keeps exactly the edges fully inside `vs`,
    with vertex ids preserved (no renumbering)."""
    mat, sizes = h.arrays
    inside = ops.rows_inside(mat, sizes, _ids(vs)[0])
    return Hypergraph._from_rows(h.n, mat[inside], sizes[inside])


def neighborhood(h: Hypergraph, x: Iterable[int], j: int) -> list[tuple[int, ...]]:
    """All sets y of size j, disjoint from x, with x | y an edge, read
    from the rows holding x's first id (:attr:`Hypergraph.incidence`).

    Raises BadArityError when j is outside [1, dim - |x|].
    """
    xt = vertex_tuple(x)
    if not xt:
        raise ValueError("x must be non-empty")
    if j < 1 or j > h.dim - len(xt):
        raise BadArityError(f"j={j} outside [1, {h.dim - len(xt)}] for |x|={len(xt)}")
    ids, wide = _ids(xt)
    if wide:
        return []
    verts, held, ptr = h.incidence  # not empty: dim > 0
    # the rows holding x's first id, or if it is on no edge another id's, which hold no x
    k = min(int(verts.searchsorted(ids[0])), len(verts) - 1)
    mat, sizes = h.arrays
    near = held[ptr[k] : ptr[k + 1]]
    rows = mat[near[sizes[near] == len(xt) + j], : len(xt) + j]
    in_x = ops.member(rows, ids)
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
    normalized so edge multiplicities do not inflate counts.  The pairs
    are read from :class:`hypermis._edgeops.SubsetCounts`, the counter
    the solvers keep, built on the edge matrix as it is (its subset keys
    are exact for any n).  An edge size with no edges gets delta_i 0.0.
    The profile is kept on `h`, so a call returns the one object, read-only.
    """
    if h._profile is None:
        mat, sizes = h.arrays
        pairs = ops.SubsetCounts(mat, sizes, h.n).pairs(np.bincount(sizes))
        if not pairs:
            raise NoEdgesError("no edge of size >= 2")
        delta_i = dict.fromkeys(range(2, h.dim + 1), 0.0)
        delta_i.update((i, ops.degree_value(pair)) for i, pair in pairs.items())
        best = ops.degree_value(ops.best_pair(pairs.values()))
        h._profile = DegreeProfile(dim=h.dim, delta_i=delta_i, delta=best)
    return h._profile


def is_independent(h: Hypergraph, s: Iterable[int]) -> bool:
    """True iff no edge is fully contained in s (s is maximal on no vertices)."""
    return ops.is_maximal_on(*h.arrays, _ids(s)[0], np.zeros(0, dtype=np.int64))


def is_maximal_independent(
    h: Hypergraph, s: Iterable[int], vertices: Iterable[int] | None = None
) -> bool:
    """True iff s is independent and every vertex of `vertices` (default
    1..n) outside s is blocked, i.e. adding it would complete some edge.

    For s inside `vertices` this is maximality in the sub-hypergraph
    induced on `vertices`: an edge leaving `vertices` has a vertex
    outside s, so it can only block vertices outside the range.
    """
    s, s_wide = _ids(s)
    vs, vs_wide = (h.n, set()) if vertices is None else _ids(vertices)  # n: 1..n, unlisted
    if not vs_wide <= s_wide:  # an id on no edge, outside s, is never blocked
        return False
    return ops.is_maximal_on(*h.arrays, s, vs)


# ---------------------------------------------------------------------------
# .hg text format: '#' comment lines, an "n m" header, then one line of
# space-separated distinct vertex ids per edge.
# ---------------------------------------------------------------------------


def parse_hg(text: str) -> Hypergraph:
    """Parse .hg text.  A non-integer token, a repeated id within an edge
    or an id outside 1..n raises ValueError naming its 1-based line,
    comment lines counted.

    When every line after the header holds only ASCII digits and spaces
    (as :func:`format_hg` writes them) and every line up to it ends in
    "\n" alone, the ids are read and checked in one array pass.  Any other
    text, and any text that fails a check there, is parsed line by line,
    which finds and names the first bad line.
    """
    h = _parse_hg_arrays(text)
    return _parse_hg_lines(text) if h is None else h


_DIGITS = 18  # longer ids may not fit int64: the line-by-line parser reads them
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines' line ends besides "\n"


def _parse_hg_arrays(text: str) -> Hypergraph | None:
    """:func:`parse_hg` in array passes; None where it does not apply or
    a check fails.  The header is found by a scan over the lines that end
    in "\n", which are the line parser's when nothing up to the header
    holds another line end; only the body is encoded and read."""
    start = 0
    while True:  # to the first line neither blank nor a comment
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end].strip()
        if line and not line.startswith("#"):
            break
        if end == len(text):
            return None
        start = end + 1
    head = line.split()
    if len(head) != 2 or not all(t.isascii() and t.isdigit() and len(t) <= _DIGITS for t in head):
        return None
    if any(c in text[:end] for c in _BREAKS):  # splitlines would find other lines
        return None
    n, m = int(head[0]), int(head[1])
    body = text[end + 1 :].encode("ascii", "replace")  # a non-ASCII character fails the check
    chars = np.frombuffer(body, dtype=np.uint8)
    # the digit flags, False at both ends, so that they change at each token's bounds
    digit = np.zeros(len(chars) + 2, dtype=bool)
    np.less(chars - ord("0"), 10, out=digit[1:-1])
    newlines = np.flatnonzero(chars == ord("\n"))
    if np.count_nonzero(digit) + np.count_nonzero(chars == ord(" ")) + len(newlines) < len(chars):
        return None  # a character other than a digit, a space or a newline
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = bounds[::2], bounds[1::2]
    if len(starts) and (ends - starts).max() > _DIGITS:
        return None
    # a row starts at the first token, and at the first token after a newline
    first = ops.flags(len(starts) + 1, np.searchsorted(starts, newlines))
    first[[0, -1]] = True
    sizes = np.diff(np.flatnonzero(first))  # blank lines hold no edge
    if len(sizes) != m:
        return None
    if not m:
        return Hypergraph(n, ())
    ids = np.fromstring(body, dtype=np.int64, sep=" ")
    if ids.min() < 1 or ids.max() > n:
        return None
    mat = np.zeros((m, int(sizes.max())), dtype=np.int64)
    valid = ops.valid_mask(mat, sizes)
    mat[valid] = ids
    if not (mat[:, 1:] > mat[:, :-1])[valid[:, 1:]].all():  # else sorted, no id repeated
        mat[~valid] = n + 1  # sorts last
        mat.sort(axis=1)
        if (mat[:, 1:] == mat[:, :-1])[valid[:, 1:]].any():
            return None
        mat[~valid] = 0
    return Hypergraph._from_rows(n, mat, sizes)


def _parse_hg_lines(text: str) -> Hypergraph:
    # (1-based line number, stripped text) of each non-comment line
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty .hg input")
    head = lines[0][1].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0][1]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"line {lines[0][0]}: {exc}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    try:
        for _, ln in lines[1:]:
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
        raise ValueError(f"line {lines[bad + 1][0]}: {exc}") from None


def format_hg(h: Hypergraph, comment: str | None = None) -> str:
    """.hg text of `h`, each line of `comment` as a '#' line first.  The
    ids are written in one array pass: their decimal digits, one column
    each, right-aligned in a byte matrix with one more column for the
    separator (a newline after a row's last id, a space elsewhere), and
    the leading zeros masked out."""
    head = "".join(f"# {ln}\n" for ln in comment.splitlines()) if comment else ""
    head += f"{h.n} {h.m}\n"
    if not h.m:
        return head
    mat, sizes = h.arrays
    ids = mat[ops.valid_mask(mat, sizes)]
    width = len(str(int(ids.max())))
    chars = np.empty((len(ids), width + 1), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    # floor_divide by a scalar takes numpy's fast path, which divmod does not
    for c in range(width - 1, -1, -1):
        np.greater(ids, 0, out=keep[:, c])  # ids >= 1: the last digit is kept
        high = ids // 10
        np.subtract(ids, high * 10, out=chars[:, c], casting="unsafe")
        ids = high
    chars += ord("0")
    chars[:, width] = ord(" ")
    chars[np.cumsum(sizes) - 1, width] = ord("\n")
    return head + chars[keep].tobytes().decode("ascii")


def load_hg(path) -> Hypergraph:
    """Parse the .hg file at `path`, UTF-8 with or without a byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_hg(fh.read())


def save_hg(h: Hypergraph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hg(h, comment))
