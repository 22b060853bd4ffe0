import math
from itertools import combinations

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from conftest import H0, instance_stream
from hypermis import analysis as an
from hypermis.core import BadArityError, Hypergraph, NoEdgesError, normalize
from hypermis.rng import Stream

PAIR_W = an.WeightedHypergraph(Hypergraph(2, [(1, 2)]), {(1, 2): 1.0})


def exact_expected_S(wh: an.WeightedHypergraph, p: float) -> float:
    """Oracle: full sweep over all colorings of the participating ids."""
    ids = sorted({v for e in wh.base.edges for v in e})
    total = 0.0
    for mask in range(1 << len(ids)):
        marked = {ids[i] for i in range(len(ids)) if mask >> i & 1}
        prob = p ** len(marked) * (1 - p) ** (len(ids) - len(marked))
        total += prob * an.eval_S(wh, marked)
    return total


def random_weighted(h: Hypergraph, seed: int) -> an.WeightedHypergraph:
    hn = normalize(h)
    s = Stream(seed, 0xAB)
    return an.WeightedHypergraph(hn, {e: 0.25 + 3.0 * s.u01() for e in hn.edges})


class TestPolynomials:
    def test_eval_s_examples(self):
        assert an.eval_S(PAIR_W, [1, 2]) == 1.0
        assert an.eval_S(PAIR_W, [1]) == 0.0
        two = an.WeightedHypergraph(
            Hypergraph(3, [(1, 2), (2, 3)]), {(1, 2): 2.0, (2, 3): 5.0}
        )
        assert an.eval_S(two, [1, 2, 3]) == 7.0

    def test_eval_p_examples(self):
        assert an.eval_P(PAIR_W, 0.5, ()) == 0.25
        assert an.eval_P(PAIR_W, 0.5, [1]) == 0.5
        assert an.eval_P(PAIR_W, 0.5, [1, 2]) == 1.0

    def test_eval_d_examples(self):
        assert an.eval_D(PAIR_W, 0.5) == 1.0  # attained at x = {1,2}
        two = an.WeightedHypergraph(
            Hypergraph(4, [(1, 2), (3, 4)]), {(1, 2): 1.0, (3, 4): 1.0}
        )
        assert an.eval_D(two, 1.0) == 2.0  # attained at the empty set

    def test_eval_d_scales_linearly(self):
        h = normalize(instance_stream(1, n_lo=8, n_hi=8)[0])
        wh = random_weighted(h, 3)
        scaled = an.WeightedHypergraph(wh.base, {e: 4.0 * w for e, w in wh.weights.items()})
        assert an.eval_D(scaled, 0.3) == pytest.approx(4.0 * an.eval_D(wh, 0.3), rel=1e-12)

    def test_expectation_matches_exhaustive(self):
        for idx, h in enumerate(instance_stream(6, n_lo=5, n_hi=9)):
            wh = random_weighted(h, idx)
            for p in (0.2, 0.5):
                assert an.eval_P(wh, p, ()) == pytest.approx(
                    exact_expected_S(wh, p), rel=1e-12, abs=1e-15
                )

    def test_d_dominates_expectation(self):
        for idx, h in enumerate(instance_stream(8, n_hi=10)):
            wh = random_weighted(h, 100 + idx)
            for p in (0.1, 0.6, 1.0):
                assert an.eval_D(wh, p) >= an.eval_P(wh, p, ()) - 1e-15


@st.composite
def weighted_hypergraphs(draw):
    """Distinct edges of mixed sizes 1-4 on up to 7 ids, positive weights."""
    n = draw(st.integers(1, 7))
    edge = st.frozensets(st.integers(1, n), min_size=1, max_size=min(n, 4))
    edges = draw(st.lists(edge, max_size=8, unique=True))
    weight = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    h = Hypergraph(n, edges)
    return an.WeightedHypergraph(h, {e: draw(weight) for e in h.edges})


@seed(14051133)
@given(weighted_hypergraphs(), st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
def test_eval_d_is_the_largest_eval_p(wh, p):
    xs = {()} | {x for e in wh.base.edges for t in range(1, len(e) + 1) for x in combinations(e, t)}
    assert an.eval_D(wh, p) == max(an.eval_P(wh, p, x) for x in xs)


def test_eval_d_checks_p():
    with pytest.raises(ValueError, match="p must lie in"):
        an.eval_D(PAIR_W, 0.0)


class TestPotentials:
    def test_f_tables(self):
        f_mod, F_mod = an.f_table(3, an.VARIANT_MODIFIED)
        assert f_mod == {2: 9, 3: 27}
        assert F_mod == {1: 0, 2: 9, 3: 36}
        f_org, F_org = an.f_table(3, an.VARIANT_ORIGINAL)
        assert f_org == {2: 7, 3: 21}
        assert F_org == {1: 0, 2: 7, 3: 28}

    def test_h0_modified_report(self):
        rep = an.potential_report(H0, an.VARIANT_MODIFIED)
        L = math.log2(5)
        assert rep.v[3] == 1.0
        assert rep.v[2] == pytest.approx(max(2.0, L ** 9), rel=1e-9)
        assert rep.T[2] == rep.v[2]  # F(1) = 0 forces T_2 = v_2
        assert rep.T[3] == pytest.approx(rep.v[2] / L ** 9, rel=1e-9)
        LL = math.log2(L)
        assert rep.q_log2[2] == pytest.approx(12 + math.log2(LL) + 2 * LL, rel=1e-9)
        assert rep.lambda_n == pytest.approx(2.0 * LL / L, rel=1e-12)

    def test_h0_original_report(self):
        rep = an.potential_report(H0, an.VARIANT_ORIGINAL)
        L = math.log2(5)
        assert rep.v[2] == pytest.approx(max(2.0, L ** 7), rel=1e-9)
        assert rep.F == {1: 0, 2: 7, 3: 28}

    def test_lambda_at_2_16(self):
        h = Hypergraph(2 ** 16, [(1, 2)])
        rep = an.potential_report(h, an.VARIANT_MODIFIED)
        assert rep.lambda_n == pytest.approx(0.5, rel=1e-12)

    def test_ladder_invariants(self):
        for h in instance_stream(12, n_lo=5, n_hi=12):
            hn = normalize(h)
            if hn.dim < 2 or hn.n < 3:
                continue
            from hypermis.core import degree_profile

            prof = degree_profile(hn)
            for variant in (an.VARIANT_MODIFIED, an.VARIANT_ORIGINAL):
                rep = an.potential_report(hn, variant)
                assert rep.F[1] == 0
                fs = sorted(rep.F)
                assert all(rep.F[a] <= rep.F[b] for a, b in zip(fs, fs[1:]))
                LL = math.log2(math.log2(hn.n))
                for i in range(2, rep.dim + 1):
                    # v_i is exactly one branch of the max
                    direct = prof.delta_i[i]
                    if i < rep.dim:
                        lifted = rep.f[i] * LL + rep.v_log2[i + 1]
                        assert rep.v_log2[i] == pytest.approx(
                            max(
                                math.log2(direct) if direct > 0 else float("-inf"),
                                lifted,
                            ),
                            rel=1e-12,
                        )
                    if direct > 0:
                        assert rep.v_log2[i] >= math.log2(direct) - 1e-9

    def test_overflow_safe_for_larger_dims(self):
        h = Hypergraph(
            30, [tuple(range(1 + i, 7 + i)) for i in range(0, 24, 2)]
        )
        rep = an.potential_report(h, an.VARIANT_MODIFIED)
        assert rep.v[2] == math.inf  # linear value overflows by design
        assert math.isfinite(rep.v_log2[2])

    def test_rejects_degenerate(self):
        with pytest.raises(NoEdgesError):
            an.potential_report(Hypergraph(5, [(1,)]), an.VARIANT_MODIFIED)
        with pytest.raises(ValueError):
            an.potential_report(Hypergraph(2, [(1, 2)]), an.VARIANT_MODIFIED)


class TestFInequality:
    def test_modified_passes_for_small_dims(self):
        for d in range(3, 9):
            assert all(an.f_inequality_check(d, an.VARIANT_MODIFIED).values())

    def test_original_constant_seven(self):
        # F(j) - j*F(j-1) = 7 >= 5 at every level
        for d in range(3, 9):
            assert all(an.f_inequality_check(d, an.VARIANT_ORIGINAL).values())


class TestBoundConstants:
    def test_frozen_example(self):
        # n=5, d=3, delta=2, m=3
        c = an.kelsen_constants(H0, 0.5, delta_param=2.0)
        L = math.log2(5)
        assert c.k_log2 == pytest.approx(7 * math.log2(L + 2) + 4, rel=1e-6)
        expect_p = (
            2 * math.log2(8 * 3 * 3) + math.log2(L) + 0.25 * math.log2(4 * math.e)
        )
        assert c.p_log2 == pytest.approx(expect_p, rel=1e-6)

    def test_kimvu_table(self):
        c = an.kelsen_constants(H0, 0.5)
        assert c.kimvu_a[1] == 8.0
        assert c.kimvu_a[2] == pytest.approx(64.0 * math.sqrt(2.0), rel=1e-12)
        assert c.kimvu_a[3] == pytest.approx(512.0 * math.sqrt(6.0), rel=1e-12)

    def test_default_delta_is_log_squared(self):
        c = an.kelsen_constants(H0, 0.5)
        assert c.delta_param == pytest.approx(math.log2(5) ** 2, rel=1e-12)

    def test_delta_near_one_stays_finite(self):
        c = an.kelsen_constants(H0, 0.5, delta_param=1.0 + 1e-9)
        assert math.isfinite(c.p_log2)
        # the delta-dependent factor vanishes: only the fixed part is left
        fixed = 2 * math.log2(8 * 3 * 3) + math.log2(math.log2(5))
        assert c.p_log2 == pytest.approx(fixed, abs=1e-6)

    def test_delta_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            an.kelsen_constants(H0, 0.5, delta_param=1.0)

    def test_vacuous_flag(self):
        small = an.kelsen_constants(H0, 0.5, delta_param=1.5)
        assert small.vacuous  # p(H) >> 1 here
        sharp = an.kelsen_constants(Hypergraph(30, [(1, 2)]), 0.5, delta_param=30.0)
        assert not sharp.vacuous  # dimension-1 instance with a hard delta


class TestMigration:
    def test_frozen_example(self):
        h = Hypergraph(4, [(1, 2, 3), (1, 2, 4)])
        wh = an.migration_hypergraph(h, [1], 1, 2)
        assert wh.weights == {(2,): 2.0, (3,): 1.0, (4,): 1.0}
        assert wh.base.n == 4

    def test_empty_when_no_members(self):
        wh = an.migration_hypergraph(H0, [1], 1, 2)
        # N_2({1}) = {{2,3}}; subsets {2} and {3} with weights |N_1({1,2})|, |N_1({1,3})|
        assert wh.weights == {(2,): 1.0, (3,): 1.0}

    def test_bad_arity(self):
        with pytest.raises(BadArityError):
            an.migration_hypergraph(H0, [1], 2, 2)
        with pytest.raises(BadArityError):
            an.migration_hypergraph(H0, [1], 1, 5)

    def test_weights_match_independent_recount(self):
        for h in instance_stream(12, n_lo=6, n_hi=12):
            hn = normalize(h)
            if hn.dim < 3:
                continue
            edge = next(e for e in hn.edges if len(e) == hn.dim)
            x = edge[:1]
            k = hn.dim - 1
            for j in range(1, k):
                wh = an.migration_hypergraph(hn, x, j, k)
                for y, w in wh.weights.items():
                    xs = set(x) | set(y)
                    recount = {
                        frozenset(set(e) - xs)
                        for e in hn.edges
                        if xs <= set(e) and len(e) == len(xs) + j
                    }
                    assert w == float(len(recount))
                    # every candidate comes from a real member of N_k(x)
                    assert any(
                        set(y) <= set(z) for z in map(set, _nk(hn, x, k))
                    )


def _nk(h, x, k):
    xs = set(x)
    return [
        tuple(v for v in e if v not in xs)
        for e in h.edges
        if len(e) == len(xs) + k and xs <= set(e)
    ]


class TestWilson:
    def test_zero_and_all(self):
        lo, hi = an.wilson_bounds(0, 100)
        assert lo == 0.0
        z = an.Z99
        assert hi == pytest.approx(z * z / (100 + z * z), rel=1e-12)
        lo1, hi1 = an.wilson_bounds(100, 100)
        assert hi1 == 1.0 and lo1 == pytest.approx(100 / (100 + z * z), rel=1e-12)

    def test_contains_point_estimate(self):
        for k, n in ((3, 50), (25, 100), (999, 1000)):
            lo, hi = an.wilson_bounds(k, n)
            assert lo <= k / n <= hi

    def test_chernoff(self):
        assert an.chernoff_lower_tail(0.5, 100, 10) == pytest.approx(
            math.exp(-100 / (2 * 0.5 * 100)), rel=1e-12
        )
        assert an.chernoff_lower_tail(0.5, 100, 0) == 1.0

    def test_marking_counts_respect_chernoff(self):
        # the counter-based coins should not produce a lower tail the
        # bound prices at < 1e-8
        import numpy as np

        from hypermis import rng

        n, p = 40_000, 0.25
        a = math.sqrt(2.0 * p * n * math.log(1e8))
        assert an.chernoff_lower_tail(p, n, a) <= 1e-8
        for seed in range(5):
            u = rng.uniforms(rng.derive_key(seed, 0xCE), np.arange(1, n + 1))
            assert (u < p).sum() > p * n - a


class TestTailExperiment:
    def test_single_edge_bernoulli(self):
        est = an.tail_experiment(PAIR_W, 0.5, 0.5, 40_000, seed=11)
        sigma = math.sqrt(0.25 * 0.75 / 40_000)
        assert abs(est.point_estimate - 0.25) < 4 * sigma
        assert est.wilson_lower_99 < 0.25 < est.wilson_upper_99

    def test_threshold_above_total_weight(self):
        est = an.tail_experiment(PAIR_W, 1.0, 1.0, 500, seed=2)
        assert est.exceed_count == 0  # S never exceeds the total weight

    def test_negative_threshold(self):
        est = an.tail_experiment(PAIR_W, 0.5, -0.5, 500, seed=2)
        assert est.point_estimate == 1.0

    def test_deterministic(self):
        a = an.tail_experiment(PAIR_W, 0.5, 0.5, 3000, seed=4)
        b = an.tail_experiment(PAIR_W, 0.5, 0.5, 3000, seed=4)
        assert a == b


class TestUnmarkGivenMarked:
    def test_single_edge_closed_form(self):
        h = Hypergraph(2, [(1, 2)])
        p = 1.0 / 32.0
        est = an.estimate_unmark_given_marked(h, [1], p, 60_000, seed=3)
        sigma = math.sqrt(p * (1 - p) / 60_000)
        assert abs(est.point_estimate - p) < 4 * sigma
        assert est.threshold == 0.5

    def test_h0_inclusion_exclusion(self):
        # x={4}: edges {3,4} and {4,5} each fully marked iff their other
        # vertex is; exact Pr = 1 - (1-p)^2
        p = 1.0 / 32.0
        exact = 1.0 - (1.0 - p) ** 2
        est = an.estimate_unmark_given_marked(H0, [4], p, 60_000, seed=5)
        sigma = math.sqrt(exact * (1 - exact) / 60_000)
        assert abs(est.point_estimate - exact) < 4 * sigma

    def test_untouched_x_gives_zero(self):
        h = Hypergraph(4, [(1, 2)])
        est = an.estimate_unmark_given_marked(h, [3], 0.5, 200, seed=1)
        assert est.point_estimate == 0.0

    def test_rejects_edge_inside_x(self):
        with pytest.raises(ValueError):
            an.estimate_unmark_given_marked(H0, [3, 4], 0.25, 10, seed=1)
        with pytest.raises(ValueError):
            an.estimate_unmark_given_marked(H0, [1, 2, 3], 0.25, 10, seed=1)


class TestNeighborhoodHit:
    def test_single_edge_closed_form(self):
        h = Hypergraph(2, [(1, 2)])
        p = 1.0 / 16.0
        exact = p * (1.0 - p)  # {2} marked, edge not fully marked
        est = an.estimate_neighborhood_hit(h, [1], 1, p, 60_000, seed=7)
        sigma = math.sqrt(exact * (1 - exact) / 60_000)
        assert abs(est.point_estimate - exact) < 4 * sigma
        # bound (1/4)(eps/a)^j with eps=1, a=2^(d+1)=8
        assert est.threshold == pytest.approx(1.0 / 32.0, rel=1e-12)
        assert est.wilson_lower_99 > est.threshold

    def test_high_p_closed_form(self):
        h = Hypergraph(2, [(1, 2)])
        exact = 0.9 * 0.1
        est = an.estimate_neighborhood_hit(h, [1], 1, 0.9, 60_000, seed=9)
        sigma = math.sqrt(exact * (1 - exact) / 60_000)
        assert abs(est.point_estimate - exact) < 4 * sigma

    def test_empty_neighborhood_rejected(self):
        with pytest.raises(BadArityError):
            an.estimate_neighborhood_hit(H0, [5], 2, 0.1, 10, seed=1)

    def test_bound_formula(self):
        # H0: x={4}, j=1: N_1 = {{3},{5}}, d_1 = 2 = Delta, eps = 1
        assert an.neighborhood_hit_bound(H0, [4], 1) == pytest.approx(
            0.25 * (1.0 / 16.0), rel=1e-12
        )


class TestIncreaseBound:
    def test_h0_manual(self):
        L = math.log2(5)
        assert an.degree_increase_bound(H0, 2) == pytest.approx(L ** 2 * 1.0, rel=1e-12)
        assert an.degree_increase_bound(H0, 3) == 0.0

    def test_bl_probability(self):
        assert an.bl_probability(H0) == pytest.approx(1.0 / (16.0 * 2.0), rel=1e-12)
