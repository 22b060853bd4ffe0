"""Property tests of the solvers against plain-set transcriptions and the
naive maximality oracle, on random hypergraphs with n <= 12, and on
instances with ids up to 2^20 (and one at 2^62) checked after
relabelling them to 1..k; the maximality check also on ids spread up to
2^63 - 1.

Edges may repeat, nest and be singletons; the solvers normalize them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, seed
from hypothesis import strategies as st

from conftest import naive_is_maximal
from hypermis import _edgeops as ops
from hypermis.bl import BlConfig, make_state, run_bl
from hypermis.core import Hypergraph, is_maximal_independent, normalize
from hypermis.generate import KIND_MIXED, KIND_UNIFORM, GenSpec, gen
from hypermis.sbl import SblConfig, run_sbl, sbl_round


@st.composite
def small_hypergraphs(draw, n_min=1):
    n = draw(st.integers(n_min, 12))
    edge = st.lists(st.integers(1, n), min_size=1, max_size=min(n, 5), unique=True)
    return Hypergraph(n, draw(st.lists(edge, max_size=16)))


def force(ids):
    chosen = set(ids)
    return lambda retry, alive: np.array([int(v) in chosen for v in alive], dtype=bool)


def reference_round(n, edges, alive, sample, d, blue):
    """One sampling round with plain sets, given the sample and the blue
    set the marking solver chose.  Returns the round's counts, the next
    edges and the next vertex set, or None when the gate rejects."""
    induced = [e for e in edges if set(e) <= sample]
    induced_dim = max(map(len, induced), default=0)
    if induced_dim > d:
        return None
    red = sample - blue
    kept = [e for e in edges if not red & set(e)]
    shrunk = [tuple(v for v in e if v not in blue) for e in kept]
    assert all(shrunk)
    return {
        "induced": induced,
        "induced_dim": induced_dim,
        "removed": len(edges) - len(kept),
        "shrunk": sum(len(a) < len(b) for a, b in zip(shrunk, kept)),
        "edges": list(normalize(Hypergraph(n, shrunk)).edges),
        "alive": tuple(v for v in alive if v not in sample),
    }


@seed(1405_1133)
@given(small_hypergraphs(), st.integers(2, 4), st.data())
def test_sbl_round_matches_set_transcription(h, d, data):
    cfg = SblConfig(seed=data.draw(st.integers(0, 99)), p_override=0.5, d_cap_override=d,
                    max_retries_per_round=1)
    state = make_state(h)
    edges = list(normalize(h).edges)
    alive = tuple(h.vertices)
    for rnd in range(2):
        sample = set(data.draw(st.lists(st.sampled_from(alive), unique=True))) if alive else set()
        blue, red, state, next_alive, rec = sbl_round(state, 0.5, d, cfg, rnd, sampler=force(sample))
        assert rec.sampled == tuple(sorted(sample))
        blues = set(blue or ())
        ref = reference_round(h.n, edges, alive, sample, d, blues)
        if ref is None:
            assert blue is None and red is None and rec.retries == 1
            assert tuple(next_alive.tolist()) == alive
            assert sorted(ops.matrix_to_edges(state.mat, state.sizes)) == edges
            return
        # blue is a maximal independent set of the hypergraph induced on
        # the sample, and red is the rest of the sample
        red = tuple(red.tolist())
        assert set(red) == sample - blues and not blues & set(red)
        assert not any(set(e) <= blues for e in ref["induced"])
        assert all(any(v in e and set(e) - {v} <= blues for e in ref["induced"]) for v in red)
        assert rec.induced_edges == len(ref["induced"])
        assert rec.induced_dim == ref["induced_dim"]
        assert rec.edges_removed_red == ref["removed"]
        assert rec.edges_shrunk == ref["shrunk"]
        edges, alive = ref["edges"], ref["alive"]
        assert sorted(ops.matrix_to_edges(state.mat, state.sizes)) == edges
        assert tuple(next_alive.tolist()) == alive == tuple(state.alive.tolist())
        assert rec.remaining_vertices == len(alive) and rec.remaining_edges == len(edges)


@seed(1405_1133)
@given(small_hypergraphs(), st.integers(0, 10 ** 6), st.booleans())
def test_run_bl_output_is_maximal(h, solver_seed, fixed):
    res = run_bl(h, BlConfig(seed=solver_seed, p_mode="fixed" if fixed else "recompute"))
    assert res.status == "ok"
    assert naive_is_maximal(h, res.mis)


@seed(1405_1133)
@given(
    small_hypergraphs(n_min=2),
    st.integers(0, 10 ** 6),
    st.sampled_from([0.2, 0.35, 0.6]),
    st.integers(2, 3),
    st.integers(1, 3),
)
def test_run_sbl_output_is_maximal(h, solver_seed, p, d, stop):
    cfg = SblConfig(seed=solver_seed, p_override=p, d_cap_override=d,
                    stop_threshold_override=stop, check_invariants=True)
    res = run_sbl(h, cfg)
    assert res.status == "ok"
    assert naive_is_maximal(h, res.mis)


@seed(1405_1133)
@given(small_hypergraphs(), st.booleans(), st.data())
def test_is_maximal_on_vertices_matches_induced_oracle(h, spread, data):
    vertices = data.draw(st.sets(st.sampled_from(list(h.vertices))))
    s = data.draw(st.sets(st.sampled_from(sorted(vertices)))) if vertices else set()
    # the oracle sweeps 1..k, so the induced part is relabelled onto it;
    # edges leaving `vertices` stay in h and must not matter
    rank = {v: i + 1 for i, v in enumerate(sorted(vertices))}
    induced = Hypergraph(
        len(rank), [[rank[v] for v in e] for e in h.edges if set(e) <= vertices]
    )
    want = naive_is_maximal(induced, {rank[v] for v in s})
    if spread:
        # ids spread up to 2^63 - 1, in the same order, send np.isin down
        # its sorting path; ids 1..n take its table
        ids = data.draw(st.sets(st.integers(1, 2**63 - 1), min_size=h.n, max_size=h.n))
        to = dict(zip(h.vertices, sorted(ids)))
        h = Hypergraph(2**63 - 1, [[to[v] for v in e] for e in h.edges])
        vertices, s = {to[v] for v in vertices}, {to[v] for v in s}
    assert is_maximal_independent(h, s, vertices) == want


def relabelled(h, keep, s):
    """h's edges and s's ids among the sorted ids `keep` (which hold every
    edge), relabelled to 1..len(keep) in order, for the oracle's 1..k sweep."""
    rank = {v: i + 1 for i, v in enumerate(keep)}
    edges = [[rank[v] for v in e] for e in h.edges]
    return Hypergraph(len(keep), edges), {rank[v] for v in s if v in rank}


@st.composite
def wide_instances(draw):
    """Edges of sizes 2-8 over a pool of up to 12 ids below 2^20, and a
    vertex set of the ids on edges plus up to 3 isolated ids."""
    k = draw(st.integers(2, 12))
    pool = draw(st.lists(st.integers(1, 2**20), min_size=k, max_size=k, unique=True))
    sizes = draw(st.lists(st.integers(2, min(k, 8)), min_size=1, max_size=10))
    h = Hypergraph(2**20, [draw(st.permutations(pool))[:size] for size in sizes])
    on_edges = {v for e in h.edges for v in e}
    isolated = draw(st.sets(st.integers(1, 2**20).filter(lambda v: v not in on_edges), max_size=3))
    return h, sorted(on_edges | isolated), isolated


@seed(1405_1133)
@given(wide_instances(), st.integers(0, 10**6), st.sampled_from([None, 0.2, 0.5]), st.booleans())
# at n = 2^62 normalizing must keep {3, 9, 10}, which holds neither 2-edge
@example(
    (Hypergraph(2**62, [(1, 9), (2, 9), (3, 9, 10)]), [1, 2, 3, 9, 10], set()), 1, None, False
)
def test_run_bl_on_wide_ids(inst, solver_seed, p, fixed):
    h, vertex_set, isolated = inst
    cfg = BlConfig(seed=solver_seed, p_mode="fixed" if fixed else "recompute", p_override=p)
    res = run_bl(h, cfg, vertex_set)
    assert res.status == "ok"
    assert set(res.mis) <= set(vertex_set) and isolated <= set(res.mis)
    assert naive_is_maximal(*relabelled(h, vertex_set, res.mis))


@pytest.mark.parametrize(
    "spec, p",
    [
        (GenSpec(n=2**14, kind=KIND_UNIFORM, seed=3, m=300, dim=3), None),
        (GenSpec(n=2**14, kind=KIND_UNIFORM, seed=4, m=120, dim=8), 0.3),
        (GenSpec(n=2**14, kind=KIND_MIXED, seed=5, m=60, dim_range=(2, 8)), 0.3),
        (GenSpec(n=9000, kind=KIND_UNIFORM, seed=6, m=400, dim=5), 0.2),
    ],
    ids=["uniform3-direct", "uniform8", "mixed2to8", "uniform5"],
)
def test_run_sbl_on_wide_ids(spec, p):
    h = gen(spec)
    res = run_sbl(h, SblConfig(seed=spec.seed, p_override=p, check_invariants=True))
    assert res.status == "ok"
    on_edges = sorted({v for e in h.edges for v in e})
    assert set(h.vertices) - set(on_edges) <= set(res.mis)
    assert naive_is_maximal(*relabelled(h, on_edges, res.mis))
