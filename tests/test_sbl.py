import json
import tracemalloc

import numpy as np
import pytest

from conftest import H0
from hypermis.baseline import enumerate_all_mis
from hypermis.core import Hypergraph, is_maximal_independent
from hypermis.generate import KIND_UNIFORM, GenSpec, gen
from hypermis import _edgeops as ops
from hypermis import sbl
from hypermis.bl import STATUS_OK, STATUS_ROUND_LIMIT, BlConfig, SolverResult, make_state, run_bl
from hypermis.sbl import (
    EXIT_BL_DIRECT,
    EXIT_DIMENSION_GATE,
    EXIT_INNER_ROUND_LIMIT,
    EXIT_STOP_THRESHOLD,
    FAIL_ABORT,
    RoundLimitError,
    FALLBACK_BL_DIRECT,
    FALLBACK_GREEDY,
    DegenerateParamsError,
    DimensionGateExhausted,
    SblConfig,
    default_max_rounds,
    derive_params,
    edge_bound_beta,
    run_sbl,
    sbl_round,
)


def force(ids):
    chosen = set(ids)
    return lambda retry, alive: np.array([int(v) in chosen for v in alive])


def assert_exit_facts(res, exit_reason):
    """The result's exit, the finisher that follows from it, and the
    retry total read from its records, as reported in its summary."""
    assert res.exit_reason == exit_reason
    assert res.fallback == (FALLBACK_BL_DIRECT if exit_reason == EXIT_BL_DIRECT else FALLBACK_GREEDY)
    assert res.retries_total == sum(rec.retries for rec in res.rounds)
    doc = res.summary()
    assert (doc["fallback"], doc["retries_total"]) == (res.fallback, res.retries_total)


class TestDeriveParams:
    def test_n_2_16_defaults(self):
        # log2 n = 16, loglog = 4, logloglog = 2
        params = derive_params(2 ** 16, 0, SblConfig(seed=0))
        assert params.p == pytest.approx(2.0 ** -8, rel=1e-12)
        assert params.d == 3  # formula gives 4/(4*2) = 0.5, clamped up
        assert params.stop_threshold == 2 ** 16

    def test_edge_bound_at_n_2_16(self):
        # beta = 4/(8*4) = 1/8, n^beta = 4
        assert not derive_params(2 ** 16, 8, SblConfig(seed=0)).within_edge_bound
        assert derive_params(2 ** 16, 4, SblConfig(seed=0)).within_edge_bound

    def test_edge_bound_vacuous_below_n_5(self):
        # log2^(3) 3 < 0 and log2^(3) 4 = 0: below the asymptotic regime
        # no bound applies, so every m is within it
        assert edge_bound_beta(3) is None and edge_bound_beta(4) is None
        assert edge_bound_beta(2 ** 16) == 1 / 8
        cfg = SblConfig(seed=0, p_override=0.4, d_cap_override=3)
        assert derive_params(3, 3, cfg).within_edge_bound

    def test_overrides_pass_through(self):
        params = derive_params(
            100, 0, SblConfig(seed=0, p_override=0.3, d_cap_override=4)
        )
        assert params.p == 0.3 and params.d == 4
        assert params.stop_threshold == 12  # ceil(1/0.09)

    def test_degenerate_small_n(self):
        with pytest.raises(DegenerateParamsError):
            derive_params(4, 0, SblConfig(seed=0))
        # overrides rescue it
        params = derive_params(
            4, 0, SblConfig(seed=0, p_override=0.4, d_cap_override=3)
        )
        assert params.p == 0.4 and params.within_edge_bound

    def test_alpha_override(self):
        params = derive_params(
            16, 0, SblConfig(seed=0, alpha_override=0.5, d_cap_override=3)
        )
        assert params.p == pytest.approx(0.25)

    @pytest.mark.parametrize("p", [1e-300, 1e-160])
    def test_tiny_p_asks_for_a_stop_threshold(self, p):
        # 1/p^2 divides by an underflowed 0.0, or overflows to inf
        cfg = SblConfig(seed=0, p_override=p, d_cap_override=3)
        with pytest.raises(ValueError, match="supply --stop-threshold"):
            derive_params(100, 0, cfg)
        cfg = SblConfig(seed=0, p_override=p, d_cap_override=3, stop_threshold_override=3)
        assert derive_params(100, 0, cfg).stop_threshold == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SblConfig(seed=0, d_cap_override=1)
        with pytest.raises(ValueError):
            SblConfig(seed=0, p_override=1.0)
        with pytest.raises(ValueError):
            SblConfig(seed=0, fail_policy="retry-forever")


def edges_of(state):
    return sorted(ops.matrix_to_edges(state.mat, state.sizes))


class TestSblRound:
    def test_forced_sample_h0(self):
        # V' = {3,4} induces the single edge {3,4}; whichever endpoint
        # turns blue, the red one kills both edges through vertex 3 or
        # leaves {4,5} to shrink to {5}
        cfg = SblConfig(seed=1, p_override=0.5, d_cap_override=3)
        blue, red, nxt, alive, rec = sbl_round(
            make_state(H0), 0.5, 3, cfg, 0, sampler=force([3, 4])
        )
        assert set(blue) | set(red.tolist()) == {3, 4}
        assert tuple(alive.tolist()) == (1, 2, 5)
        if blue == (4,):
            assert set(edges_of(nxt)) == {(5,)}
            assert rec.edges_removed_red == 2 and rec.edges_shrunk == 1
        else:  # blue == (3,)
            assert blue == (3,)
            # red 4 removes {3,4} and {4,5}; {1,2,3} shrinks to {1,2}
            assert set(edges_of(nxt)) == {(1, 2)}
        assert rec.induced_edges == 1 and rec.induced_dim == 2

    @pytest.mark.parametrize("bad", [0, 6])
    def test_vertex_set_id_out_of_range(self, bad):
        # H0 has n = 5: 0 and n + 1 are not vertices; the state a round
        # runs on is built by make_state, which rejects them
        with pytest.raises(ValueError, match=f"id {bad} "):
            make_state(H0, vertex_set=[1, bad])

    def test_empty_sample_is_identity(self):
        cfg = SblConfig(seed=1, p_override=0.5, d_cap_override=3)
        blue, red, nxt, alive, rec = sbl_round(
            make_state(H0), 0.5, 3, cfg, 0, sampler=force([])
        )
        assert blue == () and tuple(red.tolist()) == ()
        assert edges_of(nxt) == list(H0.edges) and tuple(alive.tolist()) == (1, 2, 3, 4, 5)

    def test_gate_failure_is_noop(self):
        # a sampled 3-edge with cap d=2 trips the gate every retry
        cfg = SblConfig(seed=1, p_override=0.5, d_cap_override=2, max_retries_per_round=3)
        state = make_state(H0)
        blue, red, nxt, alive, rec = sbl_round(
            state, 0.5, 2, cfg, 0, sampler=force([1, 2, 3])
        )
        assert blue is None and red is None
        assert nxt is state and edges_of(nxt) == list(H0.edges)
        assert tuple(alive.tolist()) == (1, 2, 3, 4, 5)
        assert rec.retries == 3 and rec.bl_summary is None
        assert rec.induced_dim == 3


class TestRunSbl:
    def test_edge_free(self):
        res = run_sbl(
            Hypergraph(50, []), SblConfig(seed=1, p_override=0.3, d_cap_override=3)
        )
        assert res.mis == tuple(range(1, 51))
        assert res.fallback == FALLBACK_BL_DIRECT

    def test_h0_direct_path(self):
        oracle = set(enumerate_all_mis(H0))
        res = run_sbl(H0, SblConfig(seed=5, p_override=0.35, d_cap_override=3))
        assert_exit_facts(res, EXIT_BL_DIRECT)
        assert res.mis in oracle

    def test_loop_path_small_oracle(self):
        h = gen(GenSpec(n=14, kind=KIND_UNIFORM, seed=2, m=8, dim=5))
        oracle = set(enumerate_all_mis(h))
        for seed in range(6):
            res = run_sbl(
                h, SblConfig(seed=seed, p_override=0.35, d_cap_override=3)
            )
            assert res.status == "ok"
            assert res.mis in oracle
            assert res.fallback == FALLBACK_GREEDY

    def test_loop_path_engages(self):
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=5, m=40, dim=6))
        res = run_sbl(
            h,
            SblConfig(seed=9, p_override=0.35, d_cap_override=3, check_invariants=True),
        )
        assert len(res.rounds) > 0
        assert_exit_facts(res, EXIT_STOP_THRESHOLD)
        assert is_maximal_independent(h, res.mis)
        # sampled vertices leave the pool each round; on normal exit the
        # residual handed to greedy is below the size threshold
        remaining = [rec.remaining_vertices for rec in res.rounds]
        assert all(a >= b for a, b in zip(remaining, remaining[1:]))
        assert remaining[-1] < res.params.stop_threshold
        # dimension gate respected whenever the marking solver ran
        for rec in res.rounds:
            if rec.bl_summary is not None:
                assert rec.induced_dim <= 3

    def test_blue_check_reads_every_round(self, monkeypatch):
        # rounds 0 and 1 report half an edge each as blue: only a check over
        # the blue ids of every round sees the whole edge
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=5, m=40, dim=6))
        e = h.edges[0]

        def leaky(state, p, d, cfg, rnd, **kw):
            assert rnd <= 1
            _, *rest = sbl_round(state, p, d, cfg, rnd, **kw)
            return (e[:3] if rnd == 0 else e[3:], *rest)

        monkeypatch.setattr(sbl, "sbl_round", leaky)
        cfg = SblConfig(seed=9, p_override=0.35, d_cap_override=3, check_invariants=True)
        with pytest.raises(sbl.InternalInvariantError, match="blue set lost independence"):
            run_sbl(h, cfg)

    def test_abort_policy_raises(self):
        # one big edge plus p forced high: every sample is the whole
        # vertex set, inducing dimension 4 > cap 3
        h = Hypergraph(4, [(1, 2, 3, 4)])
        cfg = SblConfig(
            seed=3, p_override=0.99, d_cap_override=3, stop_threshold_override=1,
            max_retries_per_round=2, fail_policy=FAIL_ABORT,
        )
        with pytest.raises(DimensionGateExhausted):
            run_sbl(h, cfg)

    def test_fallback_policy_recovers(self):
        h = Hypergraph(4, [(1, 2, 3, 4)])
        cfg = SblConfig(
            seed=3, p_override=0.99, d_cap_override=3, stop_threshold_override=1,
            max_retries_per_round=2,
        )
        res = run_sbl(h, cfg)
        assert res.status == "ok"
        assert_exit_facts(res, EXIT_DIMENSION_GATE)
        assert res.retries_total == 2  # both retries of the one round
        assert is_maximal_independent(h, res.mis)

    def test_inner_round_limit_follows_fail_policy(self, monkeypatch):
        def round_limited(h, cfg, vertex_set=None):
            return SolverResult(mis=(), rounds=[], status=STATUS_ROUND_LIMIT)

        monkeypatch.setattr(sbl, "run_bl", round_limited)
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=5, m=40, dim=6))
        cfg = SblConfig(seed=9, p_override=0.35, d_cap_override=3)
        res = run_sbl(h, cfg)
        assert res.status == "ok"
        assert_exit_facts(res, EXIT_INNER_ROUND_LIMIT)
        assert res.rounds == []
        assert is_maximal_independent(h, res.mis)
        with pytest.raises(RoundLimitError):
            run_sbl(
                h,
                SblConfig(seed=9, p_override=0.35, d_cap_override=3, fail_policy=FAIL_ABORT),
            )

    def test_default_max_rounds(self):
        # ceil(2 * log2(1024) / 0.3) = ceil(66.67)
        assert default_max_rounds(1024, 0.3) == 67
        assert default_max_rounds(2, 0.999) == 3
        with pytest.raises(ValueError, match="supply --max-rounds"):
            default_max_rounds(1024, 5e-324)
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=5, m=40, dim=6))
        cfg = SblConfig(seed=9, p_override=5e-324, d_cap_override=3, stop_threshold_override=3)
        with pytest.raises(ValueError, match="supply --max-rounds"):
            run_sbl(h, cfg)

    def test_max_rounds_cap_recorded(self):
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=5, m=40, dim=6))
        res = run_sbl(
            h,
            SblConfig(seed=9, p_override=0.35, d_cap_override=3, max_rounds=1),
        )
        assert_exit_facts(res, "max-rounds")
        assert len(res.rounds) == 1
        assert is_maximal_independent(h, res.mis)

    def test_deterministic(self):
        h = gen(GenSpec(n=40, kind=KIND_UNIFORM, seed=8, m=30, dim=5))
        cfg = SblConfig(seed=11, p_override=0.3, d_cap_override=3)
        a, b = run_sbl(h, cfg), run_sbl(h, cfg)
        assert a.mis == b.mis
        assert a.trace_jsonl() == b.trace_jsonl()
        assert a.summary() == b.summary()

    def test_summary_fields(self):
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=5, m=40, dim=6))
        res = run_sbl(h, SblConfig(seed=9, p_override=0.35, d_cap_override=3))
        assert list(res.summary()) == [
            "status", "rounds_used", "retries_total", "fallback", "exit_reason",
        ]
        assert list(run_bl(H0, BlConfig(seed=5)).summary()) == ["status", "rounds_used"]
        completed = [rec.bl_summary for rec in res.rounds if rec.bl_summary is not None]
        assert completed
        for summary in completed:
            assert list(summary) == ["status", "rounds_used", "mis_size"]

    def test_trace_fields(self):
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=5, m=40, dim=6))
        res = run_sbl(h, SblConfig(seed=9, p_override=0.35, d_cap_override=3))
        for ln in res.trace_jsonl().strip().splitlines():
            doc = json.loads(ln)
            assert list(doc) == [
                "round", "sampled", "induced_edges", "induced_dim", "retries",
                "bl_summary", "edges_removed_red", "edges_shrunk",
                "remaining_vertices", "remaining_edges",
            ]

    def test_blue_red_partition(self):
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=5, m=40, dim=6))
        cfg = SblConfig(seed=13, p_override=0.35, d_cap_override=3)
        params = derive_params(h.n, h.m, cfg)
        state = make_state(h)
        blues, reds = set(), set()
        for rnd in range(3):
            blue, red, state, alive, rec = sbl_round(state, params.p, params.d, cfg, rnd)
            assert blue is not None
            blues |= set(blue)
            reds |= set(red)
            assert not blues & reds
            assert blues.isdisjoint(alive) and reds.isdisjoint(alive)
            assert len(blues) + len(reds) + len(alive) == h.n


def test_wide_uniform_rows_shrink_without_subset_tables():
    # 26-edges are wider than the cap, so every round shrinks them by its
    # blue vertices; the outer state must not number their 2^26 subsets
    h = gen(GenSpec(n=120, kind=KIND_UNIFORM, seed=5, m=10, dim=26))
    cfg = SblConfig(seed=3, p_override=0.3, d_cap_override=2, stop_threshold_override=4)
    tracemalloc.start()
    try:
        res = run_sbl(h, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == STATUS_OK and res.fallback == FALLBACK_GREEDY
    assert sum(rec.edges_shrunk for rec in res.rounds) > 0
    assert is_maximal_independent(h, res.mis)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("width", [62, 63])
def test_edges_up_to_63_ids_are_solved(width):
    # the outer state keeps a row's columns in one int64 mask, which holds
    # 63 of them; the rounds shrink the wide row by their blue ids
    h = Hypergraph(width + 2, [tuple(range(1, width + 1)), (width + 1, width + 2)])
    res = run_sbl(h, SblConfig(seed=1, p_override=0.3, d_cap_override=3))
    assert res.status == STATUS_OK and res.exit_reason == EXIT_STOP_THRESHOLD
    assert sum(rec.edges_shrunk for rec in res.rounds) > 0
    assert is_maximal_independent(h, res.mis)


def test_an_edge_of_64_ids_is_named():
    h = Hypergraph(66, [tuple(range(1, 65)), (65, 66)])
    with pytest.raises(ValueError) as exc:
        run_sbl(h, SblConfig(seed=1, p_override=0.3, d_cap_override=3))
    assert str(exc.value) == "an edge of 64 ids is too wide for the solvers: at most 63 ids"
