import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from conftest import (
    H0,
    edge_inputs,
    instance_stream,
    naive_degree_profile,
    naive_induce,
    naive_is_independent,
    naive_is_maximal,
    naive_neighborhood,
)
from test_perfbench_digests import load_workloads
from hypermis import _edgeops as ops
from hypermis._edgeops import deg_less
from hypermis.core import (
    BadArityError,
    EmptyEdgeError,
    Hypergraph,
    NoEdgesError,
    degree_profile,
    format_hg,
    induce,
    is_independent,
    is_maximal_independent,
    neighborhood,
    normalize,
    parse_hg,
    vertex_tuple,
)
from hypermis.bl import BlConfig, run_bl, vertex_array
from hypermis.generate import KIND_LINEAR, KIND_MIXED, KIND_UNIFORM, GenSpec, gen
from hypermis.sbl import SblConfig, run_sbl


def edges_of(h):
    return set(h.edges)


class TestConstruction:
    def test_rejects_empty_edge(self):
        with pytest.raises(EmptyEdgeError):
            Hypergraph(3, [(1, 2), ()])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, 4)])
        with pytest.raises(ValueError):
            Hypergraph(3, [(0, 1)])

    def test_singleton_edges_are_legal(self):
        h = Hypergraph(3, [(1,), (2, 3)])
        assert h.dim == 2 and h.m == 2

    @seed(1405_1133)
    @given(edge_inputs(), st.data())
    def test_canonical_ordering(self, given_input, data):
        n, edges = given_input
        h = Hypergraph(n, edges)
        assert h.edges == tuple(sorted(vertex_tuple(e) for e in edges))
        # the same edges reshuffled, perhaps one fewer or on one more vertex
        others = data.draw(st.permutations(edges))
        if others and data.draw(st.booleans()):
            others = others[1:]
        other = Hypergraph(n + data.draw(st.integers(0, 1)), others)
        same = (h.n, h.edges) == (other.n, other.edges)
        assert (h == other) == same
        assert not same or hash(h) == hash(other)

    def test_rejects_n_past_int64(self):
        with pytest.raises(ValueError, match=r"below 2\^63"):
            Hypergraph(1 << 63, [(1, 2)])
        with pytest.raises(ValueError, match="nonnegative"):
            Hypergraph(-1, [])
        top = (1 << 63) - 1
        assert Hypergraph(top, [(top, 1)]).edges == ((1, top),)
        text = "18446744073709551617 2\n18446744073709551616 18446744073709551617\n1 2\n"
        with pytest.raises(ValueError, match=r"^line 1: vertex count must lie below 2\^63"):
            parse_hg(text)

    def test_set_up_and_queries_leave_edge_tuples_unbuilt(self):
        specs = [
            GenSpec(n=40, kind=KIND_UNIFORM, seed=3, m=60, dim=3),
            GenSpec(n=30, kind=KIND_MIXED, seed=4, m=20, dim_range=(2, 4)),
            GenSpec(n=30, kind=KIND_LINEAR, seed=5, m=10, dim=3),
        ]
        for spec in specs:
            h = gen(spec)
            built = [h, parse_hg(format_hg(h)), normalize(h), induce(h, range(1, 25))]
            degree_profile(h)
            run_bl(h, BlConfig(seed=1))
            run_sbl(h, SblConfig(seed=2))
            assert all(x._edges is None for x in built), spec


class TestNormalize:
    def test_duplicate_and_superset(self):
        h = Hypergraph(3, [(1, 2), (1, 2, 3), (1, 2)])
        assert edges_of(normalize(h)) == {(1, 2)}

    def test_antichain_unchanged(self):
        assert normalize(H0) == H0

    def test_singleton_dominates(self):
        h = Hypergraph(3, [(1,), (1, 2), (2, 3)])
        assert edges_of(normalize(h)) == {(1,), (2, 3)}

    def test_idempotent_on_random_instances(self):
        for h in instance_stream(30):
            messy = Hypergraph(h.n, h.edges + h.edges[:2])
            once = normalize(messy)
            assert normalize(once) == once
            # kept edges form an antichain
            for a in once.edges:
                for b in once.edges:
                    if a != b:
                        assert not set(a) <= set(b)


class TestNeighborhood:
    def test_h0_examples(self):
        assert neighborhood(H0, [3], 1) == [(4,)]
        assert neighborhood(H0, [3], 2) == [(1, 2)]
        assert neighborhood(H0, [5], 2) == []

    def test_bad_arity(self):
        with pytest.raises(BadArityError):
            neighborhood(H0, [3], 0)
        with pytest.raises(BadArityError):
            neighborhood(H0, [3], 3)

    def test_members_reassemble_edges(self):
        for h in instance_stream(20):
            if h.dim < 2:
                continue
            for e in h.edges[:5]:
                if len(e) < 2:
                    continue
                x = e[:1]
                for j in range(1, h.dim - 1 + 1):
                    if j > h.dim - 1:
                        break
                    for y in neighborhood(h, x, j):
                        assert len(y) == j
                        assert not set(y) & set(x)
                        assert tuple(sorted(set(x) | set(y))) in h.edges


class TestDegreeProfile:
    def test_h0(self):
        prof = degree_profile(H0)
        assert prof.delta_i == {2: 2.0, 3: 1.0}
        assert prof.delta == 2.0

    def test_single_triangle_edge(self):
        prof = degree_profile(Hypergraph(3, [(1, 2, 3)]))
        assert prof.delta_i == {2: 0.0, 3: 1.0}
        assert prof.delta == 1.0

    def test_single_pair(self):
        prof = degree_profile(Hypergraph(2, [(1, 2)]))
        assert prof.delta_i == {2: 1.0}
        assert prof.delta == 1.0

    def test_no_edges_raises(self):
        for h in (Hypergraph(4, [(1,), (2,)]), Hypergraph(4, [])):
            with pytest.raises(NoEdgesError):
                degree_profile(h)

    def test_sizes_without_edges_read_zero(self):
        h = Hypergraph(9, [(1, 2), (1, 3), (4, 5, 6, 7, 8), (4, 5, 6, 7, 9)])
        prof = degree_profile(h)
        assert prof.delta_i == {2: 2.0, 3: 0.0, 4: 0.0, 5: 2.0}
        assert prof.delta_i == naive_degree_profile(h)
        assert prof.delta == 2.0

    def test_ties_go_to_the_largest_j_then_the_smallest_size(self):
        # size 3: {1, 2} and {1, 5} lie in two edges, 1 in four, so
        # 2^(1/1) == 4^(1/2); size 2: 10 lies in two edges, 2^(1/1)
        triples = [(1, 2, 3), (1, 2, 4), (1, 5, 6), (1, 5, 7)]
        h = Hypergraph(12, triples)
        counts = ops.SubsetCounts(*h.arrays, h.n)
        assert counts.pairs(np.bincount(h.arrays[1])) == {3: (4, 2)}
        assert degree_profile(h).delta_i == {2: 0.0, 3: 2.0}
        h = Hypergraph(12, [(10, 11), (10, 12), *triples])
        counts = ops.SubsetCounts(*h.arrays, h.n)
        sizes = np.bincount(h.arrays[1])
        assert counts.pairs(sizes) == {2: (2, 1), 3: (4, 2)}
        assert counts.best(sizes) == ops.max_norm_degree(*h.arrays, h.n) == (2, 1)
        prof = degree_profile(h)
        assert prof.delta_i == {2: 2.0, 3: 2.0} and prof.delta == 2.0

    def test_matches_full_enumeration(self):
        for h in instance_stream(25, n_lo=4, n_hi=12):
            hn = normalize(h)
            if hn.dim < 2:
                continue
            want = naive_degree_profile(hn)
            got = degree_profile(hn)
            assert set(got.delta_i) == set(want)
            for i, val in want.items():
                assert got.delta_i[i] == pytest.approx(val, rel=1e-12)
            assert got.delta == pytest.approx(max(want.values()), rel=1e-12)

    def test_wide_ids_are_relabelled(self):
        # ids near 2^40: a count table indexed by id would need 8 TiB; the
        # subset keys number only the subsets on the edges
        big = 2 ** 40
        edges = [(big + 1, big + 2, big + 3), (big + 1, big + 2, big + 4), (5, big + 1, big + 5)]
        tracemalloc.start()
        try:
            prof = degree_profile(Hypergraph(big + 5, edges))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # {big+1, big+2} lies in two 3-edges (j = 1); big+1 in three (j = 2)
        assert prof.delta_i == {2: 0.0, 3: 2.0}
        assert prof.delta == 2.0
        # dim 5 with ids 2-9 moved up near 2^62 beside id 1: at this n a key
        # of two or more ids needs more than 63 bits, so it takes ranks
        small = normalize(gen(GenSpec(n=9, kind=KIND_MIXED, seed=4, m=14, dim_range=(2, 5))))
        assert small.dim == 5
        big = 2 ** 62
        wide = Hypergraph(big + 9, [tuple(v if v == 1 else big + v for v in e) for e in small.edges])
        want, got = naive_degree_profile(small), degree_profile(wide)
        assert set(got.delta_i) == set(want)
        for i, val in want.items():
            assert got.delta_i[i] == pytest.approx(val, rel=1e-12)
        assert got.delta == pytest.approx(max(want.values()), rel=1e-12)

    def test_exact_comparisons(self):
        # 8^(1/3) == 4^(1/2) == 2^(1/1): none strictly less than another
        assert not deg_less((8, 3), (4, 2))
        assert not deg_less((4, 2), (8, 3))
        assert deg_less((11, 3), (5, 2))  # 11^(1/3) < sqrt(5) since 121 < 125
        assert deg_less((2, 1), (5, 2))  # 2 < sqrt(5)


class TestIndependence:
    def test_h0_examples(self):
        assert not is_independent(H0, [1, 2, 3])
        assert is_independent(H0, [1, 2, 4])
        assert is_independent(H0, [])

    def test_maximal_examples(self):
        assert is_maximal_independent(H0, [1, 2, 4])
        assert not is_maximal_independent(H0, [1, 4])
        edge_free = Hypergraph(3, [])
        assert is_maximal_independent(edge_free, [1, 2, 3])

    def test_maximal_implies_independent(self):
        for h in instance_stream(20, n_hi=10):
            for s in ([], [1], list(range(1, h.n + 1, 2))):
                if is_maximal_independent(h, s):
                    assert is_independent(h, s)

    def test_matches_naive(self):
        for h in instance_stream(20, n_hi=10):
            import itertools

            for s in itertools.islice(
                itertools.combinations(h.vertices, min(3, h.n)), 10
            ):
                assert is_independent(h, s) == naive_is_independent(h, s)
                assert is_maximal_independent(h, s) == naive_is_maximal(h, s)


class TestInduce:
    def test_h0_examples(self):
        assert edges_of(induce(H0, [3, 4, 5])) == {(3, 4), (4, 5)}
        assert induce(H0, [1, 2]).m == 0
        assert induce(H0, range(1, 6)) == H0

    def test_full_and_empty(self):
        for h in instance_stream(10):
            hn = normalize(h)
            assert induce(hn, hn.vertices) == hn
            assert induce(hn, []).m == 0


class TestIdsPastInt64:
    """Ids int64 cannot hold lie on no edge; the queries answer as the
    naive oracles do instead of failing to convert them."""

    @pytest.mark.parametrize("s", [[2**70], [1, 2, 2**70], [1, 2, 3, 2**63], [-(2**70), 4, 5]])
    def test_is_independent(self, s):
        assert is_independent(H0, s) == naive_is_independent(H0, s)

    @pytest.mark.parametrize("vs", [[2**70], [3, 4, 5, 2**70], [1, 2, 3, -(2**64)]])
    def test_induce(self, vs):
        assert induce(H0, vs) == naive_induce(H0, vs)

    @pytest.mark.parametrize(
        "s, vertices",
        [
            ([1, 2, 4], [2**70]),  # an unblocked vertex outside s
            ([1, 2, 4, 2**70], [2**70]),  # in s
            ([1, 2, 4, 2**70], [2**70, 2**71]),
            ([1, 2, 4, 2**70], [3, 5, 2**70]),
            ([1, 2, 3, 2**70], [2**70]),  # s is not independent
            ([2**70], None),
            ([1, 2, 4, 2**70], None),
        ],
    )
    def test_is_maximal_independent(self, s, vertices):
        want = naive_is_maximal(H0, s, vertices)
        assert is_maximal_independent(H0, s, vertices) == want

    def test_neighborhood(self):
        for x, j in [([2**70], 1), ([2**70], 2), ([3, 2**70], 1)]:
            assert neighborhood(H0, x, j) == naive_neighborhood(H0, x, j) == []
        with pytest.raises(BadArityError):
            neighborhood(H0, [2**70], 3)


class TestCaches:
    """A Hypergraph keeps its degree profile and its incidence index once
    read; neither changes an answer, equality or the hash."""

    def test_degree_profile_is_kept(self):
        h = gen(GenSpec(n=40, kind=KIND_UNIFORM, seed=3, m=60, dim=3))
        prof = degree_profile(h)
        assert degree_profile(h) is prof
        assert degree_profile(Hypergraph._from_rows(h.n, *h.arrays)) == prof
        with pytest.raises(NoEdgesError):  # nothing to keep
            degree_profile(Hypergraph(3, [(1,), (2,)]))

    def test_one_subset_count_per_workbench_pass(self):
        # the pass reads the profile five times (itself, the potential
        # ladder and each of three lemma-2 bounds), on one hypergraph
        workloads = load_workloads()
        work = workloads.Workload("workbench-mc", workloads.load_design()["workloads"]["workbench-mc"])
        h = work.setup(work.instance_seeds(1)[0])
        fresh = Hypergraph._from_rows(h.n, *h.arrays)
        with mock.patch.object(ops, "SubsetCounts", side_effect=ops.SubsetCounts) as counts:
            first = workloads.workbench_pass(h, 5, 200, 8, 3, 32)
            assert counts.call_count == 1
            again = workloads.workbench_pass(h, 5, 200, 8, 3, 32)
            assert counts.call_count == 1
            other = workloads.workbench_pass(fresh, 5, 200, 8, 3, 32)
            assert counts.call_count == 2
        assert repr(first) == repr(again) == repr(other)

    def test_equality_and_hash_ignore_the_caches(self):
        edges = [(1, 2, 3), (2, 3, 4), (1, 4), (3, 5)]
        filled, empty = Hypergraph(5, edges), Hypergraph(5, reversed(edges))
        assert filled == empty and hash(filled) == hash(empty)
        degree_profile(filled)
        neighborhood(filled, [2], 1)
        assert filled.edges and filled._index is not None and filled._profile is not None
        assert empty._index is None and empty._profile is None and empty._edges is None
        assert filled == empty and empty == filled and hash(filled) == hash(empty)
        assert filled != Hypergraph(5, edges[:3]) and filled != Hypergraph(6, edges)


class TestLargestN:
    """n = 2^63 - 1, the largest n a Hypergraph takes: 1..n is never
    listed by a check, and listing it is an error that names n."""

    TOP = (1 << 63) - 1

    def test_default_range_is_checked_by_counting(self):
        n = self.TOP
        h = Hypergraph(n, [(1, 2), (2, 3)])
        assert is_independent(h, [])
        assert not is_maximal_independent(h, [])
        assert not is_maximal_independent(h, [1, 3, n])
        assert is_maximal_independent(h, [1, 3, n], [1, 2, 3, n])
        small = Hypergraph(3, [(1, 2), (2, 3)])
        assert is_maximal_independent(small, [1, 3, 0, 4, -5])
        assert not is_maximal_independent(small, [1, 0, 4])

    def test_listing_1_to_n_names_n(self):
        n = self.TOP
        assert vertex_array(None, 4).tolist() == [1, 2, 3, 4] and not len(vertex_array(None, 0))
        h = Hypergraph(n, [(1, 2), (2, 3)])
        for call, args in [(vertex_array, (None, n)), (run_bl, (h, BlConfig(seed=1))),
                           (run_sbl, (h, SblConfig(seed=1)))]:
            with pytest.raises(ValueError, match=str(n)):
                call(*args)

    def test_marking_next_to_n(self):
        # the four largest ids on adjacent edges, alive with id 1
        n = self.TOP
        h = Hypergraph(n, [(n - 3, n - 2), (n - 2, n - 1), (n - 1, n), (1, n)])
        res = run_bl(h, BlConfig(seed=3), vertex_set=[1, n - 3, n - 2, n - 1, n])
        assert res.status == "ok"
        assert is_maximal_independent(h, res.mis, [1, n - 3, n - 2, n - 1, n])


class TestHgFormat:
    def test_round_trip(self):
        for h in instance_stream(15):
            text = format_hg(h, comment="generated fixture")
            assert parse_hg(text) == h

    def test_header_and_sorting(self):
        text = format_hg(H0)
        lines = text.strip().splitlines()
        assert lines[0] == "5 3"
        assert lines[1:] == ["1 2 3", "3 4", "4 5"]

    def test_comments_ignored(self):
        assert parse_hg("# c\n2 1\n# mid\n1 2\n") == Hypergraph(2, [(1, 2)])

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_hg("2 2\n1 2\n")  # promised 2 edges, got 1
        with pytest.raises(ValueError):
            parse_hg("2 1\n1 1\n")  # duplicate id inside an edge

    @pytest.mark.parametrize(
        "text, line, what",
        [
            ("# c\n3 2\n# mid\n1 2\n2 x\n", 5, "invalid literal"),
            ("3 y\n1 2\n", 1, "invalid literal"),
            ("# a\n\n3 2\n1 2\n# b\n2 2\n", 6, "duplicate vertex id"),
            ("3 2\n# a\n0 1\n1 2\n", 3, r"\(0, 1\) leaves the vertex range"),
            ("# a\n3 2\n1 2\n# b\n2 4\n", 5, r"\(2, 4\) leaves the vertex range"),
        ],
    )
    def test_errors_name_the_line(self, text, line, what):
        # lines count from 1 and include comment and blank lines
        with pytest.raises(ValueError, match=f"^line {line}: .*{what}"):
            parse_hg(text)
