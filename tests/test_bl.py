import json
from functools import partial

import numpy as np
import pytest

import full_recompute as full
from conftest import H0, instance_stream
from hypermis.baseline import enumerate_all_mis
from hypermis.bl import (
    P_MODE_FIXED,
    P_MODE_RECOMPUTE,
    STATUS_OK,
    STATUS_ROUND_LIMIT,
    BlConfig,
    State,
    make_state,
    run_bl,
)
from hypermis.core import (
    Hypergraph,
    InternalInvariantError,
    degree_profile,
    is_independent,
    is_maximal_independent,
    normalize,
)
from hypermis.generate import KIND_UNIFORM, GenSpec, gen
from hypermis.sbl import FALLBACK_GREEDY, SblConfig, run_sbl
from hypermis import _edgeops as ops
from hypermis import bl, rng, sbl
from single_round import ForcedMarks, bl_round, mark_round

PAIR = Hypergraph(2, [(1, 2)])


class TestBlRound:
    def test_fully_marked_edge_unmarks_everyone(self):
        added, nxt, alive, rec = bl_round(PAIR, 0.5, ForcedMarks([1, 2]))
        assert added == ()
        assert nxt == PAIR and alive == (1, 2)
        assert rec.marked == (1, 2) and rec.unmarked == (1, 2)

    def test_partial_mark_commits_and_cleans_singleton(self):
        added, nxt, alive, rec = bl_round(PAIR, 0.5, ForcedMarks([1]))
        assert added == (1,)
        assert nxt.m == 0 and alive == ()
        assert rec.remaining_vertices == 0 and rec.remaining_edges == 0

    def test_no_marks_is_identity(self):
        added, nxt, alive, rec = bl_round(H0, 0.5, ForcedMarks([]))
        assert added == () and nxt == H0 and alive == (1, 2, 3, 4, 5)

    def test_superset_cleanup_after_shrink(self):
        # committing 1 turns {1,2} into the singleton {2}; {2,3} is a
        # superset of it and must go, together with vertex 2
        h = Hypergraph(3, [(1, 2), (2, 3)])
        added, nxt, alive, rec = bl_round(h, 0.5, ForcedMarks([1]))
        assert added == (1,)
        assert nxt.m == 0
        assert alive == (3,)

    def test_added_equals_marked_minus_unmarked(self):
        for h in instance_stream(15):
            hn = normalize(h)
            key = rng.derive_key(5, h.n, h.m)
            _, _, _, rec = bl_round(hn, 0.4, partial(rng.uniforms, key))
            assert set(rec.added) == set(rec.marked) - set(rec.unmarked)

    def test_matches_pure_set_reference(self):
        # independent reimplementation of one round with plain sets
        def reference(edges, alive, marked):
            marked = set(marked) & set(alive)
            full = [e for e in edges if set(e) <= marked]
            unmarked = set().union(*map(set, full)) if full else set()
            added = marked - unmarked
            shrunk = [tuple(v for v in e if v not in added) for e in edges]
            assert all(shrunk)
            distinct = set(shrunk)
            kept = {e for e in distinct if not any(set(o) < set(e) for o in distinct)}
            singles = {e[0] for e in kept if len(e) == 1}
            survivors = sorted(e for e in kept if len(e) > 1)
            next_alive = tuple(v for v in alive if v not in added and v not in singles)
            return added, survivors, next_alive

        from hypermis.rng import Stream

        pick = Stream(99)
        for h in instance_stream(25, n_hi=14):
            hn = normalize(h)
            alive = tuple(hn.vertices)
            marks = {v for v in alive if pick.u01() < 0.45}
            added, nxt, nalive, _ = bl_round(hn, 0.5, ForcedMarks(marks))
            ref_added, ref_edges, ref_alive = reference(hn.edges, alive, marks)
            assert set(added) == ref_added
            assert sorted(nxt.edges) == ref_edges
            assert nalive == ref_alive


    @pytest.mark.parametrize("singleton", [True, False])
    def test_marking_only_isolated_vertices(self, singleton):
        # 5 and 6 lie in no edge: without a singleton edge nothing but
        # `alive` changes; a singleton edge at round 0 still leaves with
        # its vertex, as in the full-recompute round
        edges = [(1,), (2, 3), (3, 4)] if singleton else [(2, 3), (3, 4)]
        h = Hypergraph(6, edges)
        state = make_state(h)
        alive, mat, sizes = full.normalized(h)
        delta = ops.degree_value(state.degree_pair())
        coins = ForcedMarks([5, 6])
        rec, _ = mark_round(state, 0.5, coins, delta, 0)
        alive, mat, sizes, want, want_added = full.mark_round(
            h.n, alive, mat, sizes, 0.5, coins, delta, 0)
        assert rec.to_json_line() == want.to_json_line()
        assert list(rec.added) == want_added.tolist() == [5, 6]
        assert state.alive.tolist() == alive.tolist() == ([2, 3, 4] if singleton else [1, 2, 3, 4])
        assert state.m == len(sizes) == 2


class TestRunBl:
    def test_edge_free_shortcut_single_round(self):
        res = run_bl(Hypergraph(10, []), BlConfig(seed=3))
        assert res.mis == tuple(range(1, 11))
        assert len(res.rounds) == 1 and res.status == STATUS_OK

    def test_p_one_on_edge_free(self):
        res = run_bl(Hypergraph(4, []), BlConfig(seed=1, p_override=1.0))
        assert res.mis == (1, 2, 3, 4) and len(res.rounds) == 1

    def test_pair_is_oracle_member(self):
        oracle = set(enumerate_all_mis(PAIR))
        for seed in range(10):
            res = run_bl(PAIR, BlConfig(seed=seed))
            assert res.status == STATUS_OK
            assert res.mis in oracle

    def test_h0_oracle_membership_both_modes(self):
        oracle = set(enumerate_all_mis(H0))
        for seed in range(8):
            for mode in (P_MODE_FIXED, P_MODE_RECOMPUTE):
                res = run_bl(H0, BlConfig(seed=seed, p_mode=mode))
                assert res.mis in oracle

    def test_round_limit_status(self):
        # p_override=1 on an edged instance loops forever: every round
        # marks everyone, every edge unmarks everyone
        res = run_bl(PAIR, BlConfig(seed=0, p_override=1.0, max_rounds=5))
        assert res.status == STATUS_ROUND_LIMIT
        assert len(res.rounds) == 5
        assert res.mis == ()

    def test_singleton_only_input(self):
        h = Hypergraph(3, [(1,), (2,)])
        res = run_bl(h, BlConfig(seed=4))
        assert res.status == STATUS_OK
        assert res.mis == (3,)

    def test_trace_field_names_and_invariants(self):
        res = run_bl(H0, BlConfig(seed=9))
        lines = res.trace_jsonl().strip().splitlines()
        assert len(lines) == len(res.rounds)
        committed = set()
        for ln, rec in zip(lines, res.rounds):
            doc = json.loads(ln)
            assert list(doc) == [
                "round", "marked", "unmarked", "added",
                "remaining_vertices", "remaining_edges", "delta", "p_used",
            ]
            # added sets are pairwise disjoint across rounds
            assert not committed & set(rec.added)
            committed |= set(rec.added)
            assert is_independent(H0, committed)

    def test_vertex_subset_run(self):
        res = run_bl(H0, BlConfig(seed=2), vertex_set=[3, 4])
        assert res.status == STATUS_OK
        assert res.mis in {(3,), (4,)}

    @pytest.mark.parametrize("bad", [0, 6])
    def test_vertex_set_id_out_of_range(self, bad):
        # H0 has n = 5: 0 and n + 1 are not vertices
        with pytest.raises(ValueError, match=f"id {bad} "):
            run_bl(H0, BlConfig(seed=2), vertex_set=[1, 2, bad])
        with pytest.raises(ValueError, match=f"id {bad} "):
            bl_round(H0, 0.5, ForcedMarks([]), vertex_set=[bad, 3])

    def test_deterministic(self):
        for h in instance_stream(10):
            a = run_bl(h, BlConfig(seed=123))
            b = run_bl(h, BlConfig(seed=123))
            assert a.mis == b.mis and a.trace_jsonl() == b.trace_jsonl()

    def test_run_matches_iterated_rounds(self):
        # the loop must be exactly iterated bl_round at the recorded p
        h = normalize(instance_stream(1, n_lo=10, n_hi=10)[0])
        cfg = BlConfig(seed=31)
        res = run_bl(h, cfg)
        cur, alive = h, tuple(cur_v for cur_v in h.vertices)
        for rec in res.rounds:
            if rec.p_used == 1.0 and rec.delta == 0.0:
                assert cur.m == 0  # shortcut round
                break
            coins = partial(rng.uniforms, rng.derive_key(cfg.seed, rng.TAG_BL_MARK, rec.round))
            added, cur, alive, rec2 = bl_round(cur, rec.p_used, coins, vertex_set=alive)
            assert rec2.marked == rec.marked
            assert rec2.added == rec.added
            assert rec2.remaining_vertices == rec.remaining_vertices

    def test_maximality_on_random_instances(self):
        for h in instance_stream(25, n_hi=14):
            res = run_bl(h, BlConfig(seed=h.n * 31 + h.m))
            assert res.status == STATUS_OK
            assert is_maximal_independent(h, res.mis)

    def test_singleton_victims_carry_maximality_witness(self):
        # a vertex deleted by singleton cleanup in round t must have an
        # original edge whose other vertices were all committed by then
        for h in instance_stream(12, n_hi=14):
            hn = normalize(h)
            cfg = BlConfig(seed=h.n * 7 + h.m)
            res = run_bl(hn, cfg)
            cur, alive = hn, tuple(hn.vertices)
            committed: set[int] = set()
            for rec in res.rounds:
                if rec.p_used == 1.0 and rec.delta == 0.0:
                    break  # shortcut round deletes nobody
                coins = partial(rng.uniforms, rng.derive_key(cfg.seed, rng.TAG_BL_MARK, rec.round))
                prev_alive = set(alive)
                added, cur, alive, _ = bl_round(cur, rec.p_used, coins, vertex_set=alive)
                committed |= set(added)
                victims = prev_alive - set(added) - set(alive)
                for v in victims:
                    assert any(
                        v in e and set(e) - {v} <= committed for e in hn.edges
                    ), (v, rec.round)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BlConfig(seed=1, p_mode="sometimes")
        with pytest.raises(ValueError):
            BlConfig(seed=1, p_override=0.0)
        with pytest.raises(ValueError):
            BlConfig(seed=1, max_rounds=0)

    # a 64-id row's column mask does not fit one int64, and the subset
    # numbering of a row of 62 or 63 ids would keep 2^62 or 2^63 numbers,
    # more than one array holds; numpy would raise before allocating
    @pytest.mark.parametrize("width, error", [
        (62, "an edge of 62 ids is too wide to number its subsets: at most 59 ids"),
        (63, "an edge of 63 ids is too wide to number its subsets: at most 59 ids"),
        (64, "an edge of 64 ids is too wide for the solvers: at most 63 ids"),
    ])
    def test_too_wide_an_edge_is_named(self, width, error):
        h = Hypergraph(width + 2, [tuple(range(1, width + 1)), (width + 1, width + 2)])
        with pytest.raises(ValueError) as exc:
            run_bl(h, BlConfig(seed=1))
        assert str(exc.value) == error

    def test_cleanup_rejects_a_row_that_loses_nothing(self):
        # rows (1, 2) and (3, 4): deleting 1 from both would look up row
        # 1's full mask, which numbers no proper subset
        state = make_state(Hypergraph(4, [(1, 2), (3, 4)]))
        with pytest.raises(InternalInvariantError, match="lost no id"):
            state.cleanup(np.array([1]), np.array([0, 1]))
        with pytest.raises(InternalInvariantError, match="empty"):
            state.cleanup(np.array([1, 2]), np.array([0]))

    def test_only_states_that_read_degrees_number_subsets(self, monkeypatch):
        # the outer sampling state only shrinks rows, of any width: it
        # numbers no subsets, only pairs; an inner state with a row of size
        # >= 2 reads delta, so it counts and lists the holders of each of
        # the 2^s - 2 proper non-empty subsets of a row of size s; one of
        # singletons has no degree pair to read, so it counts nothing
        states, counts = [], []

        class RecordedState(State):
            def __init__(self, *args):
                super().__init__(*args)
                states.append(self)

        class RecordedCounts(ops.SubsetCounts):
            def __init__(self, *args):
                super().__init__(*args)
                counts.append(self)

        monkeypatch.setattr(bl, "State", RecordedState)
        monkeypatch.setattr(sbl, "State", RecordedState)
        monkeypatch.setattr(ops, "SubsetCounts", RecordedCounts)
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=7, m=120, dim=3))
        cfg = SblConfig(seed=2, p_override=0.3, d_cap_override=2, stop_threshold_override=4)
        res = run_sbl(h, cfg)
        assert sum(rec.edges_shrunk for rec in res.rounds) > 0
        outer, inner = states[0], states[1:]
        assert outer.counts is None and "_pair_lists" in vars(outer)
        wide = [(np.count_nonzero(s.rows, axis=1) >= 2).any() for s in inner]
        assert any(wide) and any(s.rows.shape[0] and not w for s, w in zip(inner, wide))
        for s, w in zip(inner, wide):
            assert (s.counts is not None) == w
            if w:
                held = int(np.maximum((1 << s.built) - 2, 0).sum())
                assert len(s.counts.held) == s.counts.ptr[-1] == held
        counts.clear()
        degree_profile(h)
        ops.max_norm_degree(*h.arrays, h.n)
        assert len(counts) == 2

    def test_degree_counts_move_no_empty_row_set(self, monkeypatch):
        # a state's counts are built before any row moves in every run_bl
        # and inner sampling run, so nothing is recounted at build time
        moved = []
        recount = ops.SubsetCounts.recount

        def recorded(self, rows, old, new):
            moved.append(len(rows))
            return recount(self, rows, old, new)

        monkeypatch.setattr(ops.SubsetCounts, "recount", recorded)
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=7, m=120, dim=3))
        assert run_bl(h, BlConfig(seed=1)).status == STATUS_OK
        cfg = SblConfig(seed=2, p_override=0.3, d_cap_override=2, stop_threshold_override=4)
        run_sbl(h, cfg)
        assert moved and min(moved) > 0

    def test_rows_stay_as_built(self, monkeypatch):
        # every state of a whole run_bl and run_sbl (the outer state and
        # each inner one) keeps its rows read-only and unwritten
        built = []

        class Recorded(State):
            def __init__(self, n, alive, mat, sizes):
                super().__init__(n, alive, mat, sizes)
                built.append((self, mat.copy()))

        monkeypatch.setattr(bl, "State", Recorded)
        monkeypatch.setattr(sbl, "State", Recorded)
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=7, m=120, dim=3))
        assert run_bl(h, BlConfig(seed=1)).status == STATUS_OK
        cfg = SblConfig(seed=2, p_override=0.3, d_cap_override=2, stop_threshold_override=4)
        res = run_sbl(h, cfg)
        assert res.fallback == FALLBACK_GREEDY
        assert sum(rec.edges_shrunk for rec in res.rounds) > 0
        assert len(built) >= 3
        for state, mat in built:
            assert not state.rows.flags.writeable
            assert state.rows.shape == mat.shape
            assert state.rows.tobytes() == mat.tobytes()
