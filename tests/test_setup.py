"""The array set-up path (block-drawn generator, matrix-built Hypergraph,
template .hg writer, one-pass parser) against the loop-based oracles of
tests/setup_reference.py and the line-by-line parser."""

from __future__ import annotations

import math
from itertools import chain

import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

import setup_reference as ref
from conftest import edge_inputs, instance_stream
from hypermis import _edgeops as ops
from hypermis import core, generate, rng
from hypermis.core import Hypergraph, format_hg, parse_hg
from hypermis.generate import (
    KIND_LINEAR,
    KIND_MIXED,
    KIND_UNIFORM,
    GenSpec,
    InfeasibleError,
    gen,
)


@st.composite
def uniform_specs(draw):
    """Sparse specs (few of the C(n, d) subsets, windows rarely repeat an
    id) through dense ones (most subsets, d close to n)."""
    n = draw(st.sampled_from([2, 3, 5, 8, 13, 30, 100, 4096, 2**40]))
    d = draw(st.integers(2, min(n, 8)))
    m = draw(st.integers(0, min(math.comb(n, d), 600)))
    return GenSpec(n=n, kind=KIND_UNIFORM, seed=draw(st.integers(0, 2**32)), m=m, dim=d)


@seed(14051133)
@given(uniform_specs())
def test_uniform_matches_loop(spec):
    assert gen(spec).edges == tuple(ref.uniform_edges(spec)[0])


@pytest.mark.parametrize(
    "n, d, m",
    [
        (6, 6, 1),  # d = n
        (40, 40, 1),
        (200, 200, 1),
        (1000, 1000, 1),
        (6, 5, 6),  # d = n - 1
        (200, 199, 3),
        (1000, 999, 2),
        (60, 30, 100),  # wide windows that nearly always repeat an id
        (7, 3, 35),  # m = C(n, d)
        (12, 2, 66),
        (9, 4, 126),
        (30, 3, 3000),  # dense: most windows of ids repeat none, most draws repeat an edge
        (4096, 3, 8192),  # the benchmark's uniform shapes
        (4096, 6, 256),
    ],
)
def test_uniform_corner_specs_match_loop(n, d, m):
    for s in (100, 101):
        spec = GenSpec(n=n, kind=KIND_UNIFORM, seed=s, m=m, dim=d)
        assert gen(spec).edges == tuple(ref.uniform_edges(spec)[0])


def _rejecting_span(bound: int) -> int:
    """A rejection bound 1/32 below the true one: about 3 % of words are
    redrawn, so the block path still applies."""
    return ((1 << 64) - (1 << 59)) // bound * bound


@seed(14051133)
@given(
    st.sampled_from([7, 300, 4096]),
    st.integers(1, 6),
    st.integers(0, 400),
    st.integers(0, 2**32),
)
@example(4096, 4, 40, 23)  # the block's first window is bad: a run of 0 at its start
@example(300, 5, 60, 24)  # a redraw ends on a bad window: a run of 0 between two redraws
@example(300, 3, 50, 20)  # one run fills `count` and stops at a bad window right there
@example(7, 6, 30, 0)  # nearly every window repeats an id: three blocks
def test_sample_rows_replays_sample_ids(n, k, count, key):
    k = min(k, n)
    for span in (rng._span, _rejecting_span):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "_span", span)
            a, b = rng.Stream(key), rng.Stream(key)
            rows = a.sample_rows(n, k, count)
            assert rows.tolist() == [list(b.sample_ids(n, k)) for _ in range(count)]
            assert a.counter == b.counter


def test_sample_rows_near_2_to_63():
    # n = 3 * 2^61: a quarter of all words lie above the rejection bound
    n = 3 * 2**61
    a, b = rng.Stream(5), rng.Stream(5)
    rows = a.sample_rows(n, 3, 200)
    assert rows.tolist() == [list(b.sample_ids(n, 3)) for _ in range(200)]
    spec = GenSpec(n=n, kind=KIND_UNIFORM, seed=5, m=40, dim=3)
    assert gen(spec).edges == tuple(ref.uniform_edges(spec)[0])


def test_forced_rejections_match_loop(monkeypatch):
    spec = GenSpec(n=4096, kind=KIND_UNIFORM, seed=7, m=2000, dim=3)
    plain = gen(spec)
    monkeypatch.setattr(rng, "_span", _rejecting_span)
    forced = gen(spec)
    assert forced.edges == tuple(ref.uniform_edges(spec)[0])
    assert forced != plain  # the redrawn words moved the edges


@pytest.mark.parametrize(
    "n, d, m",
    [(30, 3, 600), (4096, 3, 500), (9, 3, 40), (6, 3, 20)],
    # "loop": few words or windows that often repeat an id, where most
    # draws fall back to sample_ids
    ids=["blocks-with-repeats", "blocks", "loop", "loop-all-subsets"],
)
def test_infeasible_at_the_same_draw(monkeypatch, n, d, m):
    spec = GenSpec(n=n, kind=KIND_UNIFORM, seed=3, m=m, dim=d)
    edges, draws = ref.uniform_edges(spec)  # the m-th distinct edge comes at draw `draws`
    assert draws >= m
    for cap in (0, m // 2, draws - 3, draws - 2):
        monkeypatch.setattr(generate, "_attempt_cap", lambda m, cap=cap: cap)
        with pytest.raises(InfeasibleError, match=f"could not place {m} distinct edges"):
            gen(spec)
    for cap in (draws - 1, draws, 2 * draws):
        monkeypatch.setattr(generate, "_attempt_cap", lambda m, cap=cap: cap)
        assert gen(spec).edges == tuple(edges)


def test_more_edges_than_subsets():
    spec = GenSpec(n=6, kind=KIND_UNIFORM, seed=1, m=21, dim=3)
    with pytest.raises(InfeasibleError, match="m=21 exceeds the 20 distinct 3-subsets"):
        gen(spec)
    with pytest.raises(InfeasibleError, match="m=21 exceeds"):
        ref.uniform_edges(spec)
    big = GenSpec(n=200, kind=KIND_UNIFORM, seed=1, edge_probability=0.1, dim=4)
    with pytest.raises(InfeasibleError, match="enumerates"):
        gen(big)


@pytest.mark.parametrize("n, d", [(5, 2), (9, 3), (12, 4), (7, 7)])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
def test_edge_probability_coins_match_loop(n, d, p):
    for s in (1, 2):
        spec = GenSpec(n=n, kind=KIND_UNIFORM, seed=s, edge_probability=p, dim=d)
        assert gen(spec).edges == tuple(ref.uniform_edges(spec)[0])


def test_gen_rejects_ids_past_int64():
    with pytest.raises(ValueError, match="2\\^63"):
        GenSpec(n=2**63, kind=KIND_UNIFORM, seed=1, m=1, dim=2)


@st.composite
def any_specs(draw):
    kind = draw(st.sampled_from([KIND_UNIFORM, KIND_MIXED, KIND_LINEAR]))
    n = draw(st.integers(8, 60))
    s = draw(st.integers(0, 2**32))
    if kind == KIND_MIXED:
        lo, m = draw(st.integers(2, 4)), draw(st.integers(0, n // 2))
        return GenSpec(n=n, kind=kind, seed=s, m=m, dim_range=(lo, lo + 2))
    d = draw(st.integers(2, 4))
    if kind == KIND_LINEAR:
        return GenSpec(n=n, kind=kind, seed=s, m=draw(st.integers(0, n // d)), dim=d)
    if draw(st.booleans()):
        p = draw(st.floats(0, 0.05))
        return GenSpec(n=min(n, 24), kind=kind, seed=s, edge_probability=p, dim=d)
    return GenSpec(n=n, kind=kind, seed=s, m=draw(st.integers(0, min(math.comb(n, d), 300))), dim=d)


@seed(14051133)
@given(any_specs(), st.sampled_from([None, "", "one", "two\nlines"]))
def test_format_hg_matches_loop(spec, comment):
    h = gen(spec)
    assert format_hg(h, comment) == ref.format_hg(h, comment)
    assert h.arrays[0].tolist() == ops.edge_matrix(h.edges)[0].tolist()


# every digit count: 1, 9, 10, 99, ..., 10^17, 10^18 - 1; then ids of 19
# digits, which the array pass leaves to the line parser
_WIDE_IDS = [v for k in range(1, 19) for v in (10 ** (k - 1), 10**k - 1)] + [10**18, 2**63 - 1]


@pytest.mark.parametrize("v", _WIDE_IDS)
def test_format_hg_at_every_digit_count(v):
    edges = [(1,)] if v == 1 else [(v,), (1, v), (v // 2 + 1, v)]
    for h in (Hypergraph(v, edges), Hypergraph(2**63 - 1, [(1, v), _WIDE_IDS])):
        text = format_hg(h, "c")
        assert text == ref.format_hg(h, "c")
        assert parse_hg(text) == h
        fast = core._parse_hg_arrays(text)
        assert fast == h if h.n < 10**18 else fast is None


def test_format_hg_of_repeated_and_nested_edges():
    h = Hypergraph(12, [(9, 1), (1, 9), (3,), (12, 4, 5, 1), (3, 4), (3,)])
    assert format_hg(h, "x") == ref.format_hg(h, "x")
    assert format_hg(Hypergraph(0, [])) == "0 0\n"


@seed(14051133)
@given(edge_inputs(), st.data())
def test_from_rows_matches_public_constructor(given_input, data):
    n, edges = given_input
    h = Hypergraph(n, edges)
    rows = data.draw(st.permutations(h.edges))  # any row order
    built = Hypergraph._from_rows(n, *ops.edge_matrix(rows))
    assert built == h and hash(built) == hash(h) and built.edges == h.edges
    for got, want in zip(built.arrays, h.arrays):
        assert got.tolist() == want.tolist() and not got.flags.writeable


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "error", str(exc)


# the line ends of str.splitlines other than "\n" (and "\r\n"), which the
# array pass must not read past to find the header
_LINE_ENDS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# tokens the array pass leaves to the line parser (int() reads some of
# them), or that fail its range check
_ODD_TOKENS = ["+1", "1_0", "٣", "007", "0", "-1", "x", "1.0", "9" * 19, "0" * 19 + "2", "99"]


@st.composite
def hg_texts(draw):
    """format_hg texts of generated instances, some of them bent into a
    shape the array pass hands to the line-by-line parser."""
    h = gen(draw(any_specs()))
    lines = format_hg(h, draw(st.sampled_from([None, "c", "a\nb"]))).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        edit = draw(st.integers(0, 9))
        if edit == 9:  # a sign int() reads, so the text may stay valid
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = "+" + tokens[j]
        elif edit == 0:
            lines.insert(i, draw(st.sampled_from(["# mid", "", "   ", "\t"])))
        elif edit == 1:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
        elif edit == 2:
            tokens.append(tokens[0])  # a repeated id
        elif edit == 3:
            tokens.append(str(h.n + 1))
        elif edit == 4:
            del lines[i]
            continue
        elif edit == 5:
            lines.insert(i, "1 2")
        sep = draw(st.sampled_from([" ", "  ", "\t"])) if edit in (6, 7) else " "
        lines[i] = sep.join(tokens) + (" " if edit == 8 else "")
    joints = [draw(st.sampled_from(["\n", "\r\n"]))] * (len(lines) - 1)
    if joints and draw(st.booleans()):  # one line end other than "\n"
        joints[draw(st.integers(0, len(joints) - 1))] = draw(st.sampled_from(_LINE_ENDS))
    return "".join(chain.from_iterable(zip(lines, joints))) + lines[-1] if lines else ""


def _agree(text):
    """parse_hg and its array pass, where that applies, give what the
    line-by-line parser gives."""
    want = _outcome(core._parse_hg_lines, text)
    assert _outcome(parse_hg, text) == want
    fast = core._parse_hg_arrays(text)
    assert fast is None or ("ok", fast) == want


def test_clean_texts_take_the_array_pass(monkeypatch):
    cases = [(h, format_hg(h, "generated")) for h in instance_stream(20)]
    cases.append((Hypergraph(5, []), "# none\n5 0\n\n"))
    for h, text in cases:
        assert core._parse_hg_arrays(text) == h
    h = gen(GenSpec(n=4096, kind=KIND_UNIFORM, seed=1, m=500, dim=4))
    monkeypatch.setattr(core, "_parse_hg_lines", None)
    assert parse_hg(format_hg(h)) == h


@seed(14051133)
@given(hg_texts())
def test_parse_hg_matches_line_parser(text):
    _agree(text)


@pytest.mark.parametrize(
    "text",
    [
        "# c\n3 2\n# mid\n1 2\n2 x\n",
        "3 y\n1 2\n",
        "# a\n\n3 2\n1 2\n# b\n2 2\n",
        "3 2\n# a\n0 1\n1 2\n",
        "# a\n3 2\n1 2\n# b\n2 4\n",
        "3 2\n1 2\n2 4\n",
        "3 2\n1 2\n2 2\n",
        "3 2\n0 1\n1 2\n",
        "2 2\n1 2\n",
        "2 1\n1 1\n",
        "2 1\n1 2\n2 1\n",
        "",
        "# only\n",
        "3\n1 2\n",
        "3 1 1\n1 2\n",
        "-3 1\n1 2\n",
        "3 0\n",
        "3 0\n\n  \n",
        "3 1\n99999999999999999999\n",
        "4 2\n1   2\n\n 3 4 \n",
        "4 1\n1\t2\n",
        "4 1\r\n1 2\r\n",
        "4 1\n٣ 2\n",
        "3 2\n+1 2\n2 3\n",
        "3 2\n1 2\n# mid\n2 3\n",
        "12 1\n1_0 2\n",
        "3 1\n0001 3\n",
        "4 2\n3 1 2\n4 1\n",  # rows not in increasing order
        "3 1\n\ud800 2\n",  # not encodable
        # another line end in a comment line, in the header line, in the body
        *[
            text.format(end)
            for end in _LINE_ENDS
            for text in ["# c{}5 1\n3 1\n1 2\n", "3{}1\n1 2\n", "3 2\n1 2{}2 3\n"]
        ],
    ],
)
def test_parse_hg_matches_line_parser_on_fixed_texts(text):
    _agree(text)
    _agree(text.replace("\n", "\n" + " " * 600 + "\n", 1))  # with a line of spaces
