"""Full-recompute reference of the solvers' rounds, the test oracle of
the incremental state in :mod:`hypermis.bl`.

A state here is a plain (alive, mat, sizes) triple, and every round runs
the matrix kernels over all of its edges: delete the committed ids from
every row, dedupe, prune supersets, and recompute the degree pair from
scratch.  Records are built with the solvers' own record types, so their
JSON lines compare byte for byte.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from hypermis import _edgeops as ops
from hypermis import rng
from hypermis.bl import (
    P_MODE_FIXED,
    STATUS_OK,
    BlConfig,
    BlRoundRecord,
    SolverResult,
    default_max_rounds,
    make_state,
)
from hypermis.sbl import SblRoundRecord


def drop_rows(mat, sizes, mask):
    return mat[~mask], sizes[~mask]


def normalized(h, vertex_set=None):
    """(alive, mat, sizes) of `h` restricted to `vertex_set`, normalized."""
    state = make_state(h, vertex_set)
    return state.alive, state.mat, state.sizes


def round_p(n, mat, sizes, cfg, frozen):
    """(delta, p) of the round about to run, with the delta from scratch."""
    delta = ops.degree_value(ops.max_norm_degree(mat, sizes, n))
    if cfg.p_override is not None:
        return delta, cfg.p_override
    if frozen is not None:
        return delta, frozen[1]
    d = int(sizes.max()) if len(sizes) else 1
    return delta, 1.0 / (2 ** (d + 1) * delta)


def shrink(n, mat, sizes, gone):
    """Delete the ids with gone[id] from every row, then dedupe and
    prune.  Returns (mat, sizes, number of rows that lost an id)."""
    new_mat, new_sizes = ops.remove_vertices(mat, sizes, gone[mat])
    assert (new_sizes >= 1).all(), "edge shrank to empty"
    shrunk = int((new_sizes < sizes).sum())
    new_mat, new_sizes = ops.dedupe_rows(new_mat, new_sizes, n)
    return (*ops.prune_supersets(new_mat, new_sizes, n), shrunk)


def mark_round(n, alive, mat, sizes, p, coins, delta, rnd):
    """One marking round with the coin function `coins`, ids -> uniforms.
    Returns (alive, mat, sizes, record, added)."""
    marked = alive[coins(alive) < p]
    flags = np.zeros(n + 1, dtype=bool)
    flags[marked] = True
    hits = flags[mat] & ops.valid_mask(mat, sizes)
    pool = mat[hits.sum(axis=1) == sizes].ravel()
    unmarked = np.unique(pool[pool > 0])
    flags[unmarked] = False
    added = marked[flags[marked]]
    mat, sizes, _ = shrink(n, mat, sizes, flags)
    single = sizes == 1
    victims = np.unique(mat[single, 0])
    mat, sizes = drop_rows(mat, sizes, single)
    flags[victims] = True
    alive = alive[~flags[alive]]
    rec = BlRoundRecord(
        round=rnd,
        marked=tuple(marked.tolist()),
        unmarked=tuple(unmarked.tolist()),
        added=tuple(added.tolist()),
        remaining_vertices=len(alive),
        remaining_edges=len(sizes),
        delta=delta,
        p_used=p,
    )
    return alive, mat, sizes, rec, added


def run_bl(n, alive, mat, sizes, cfg: BlConfig) -> SolverResult:
    """The marking solver on a normalized triple, without the final check."""
    max_rounds = cfg.max_rounds or default_max_rounds(len(alive))
    frozen = None
    if cfg.p_mode == P_MODE_FIXED and len(sizes):
        frozen = round_p(n, mat, sizes, cfg, None)
    mis, records, rnd = [], [], 0
    while len(alive) and rnd < max_rounds:
        if not len(sizes):
            rest = tuple(alive.tolist())
            mis.extend(rest)
            records.append(BlRoundRecord(rnd, rest, (), rest, 0, 0, 0.0, 1.0))
            alive = alive[:0]
            break
        delta, p = round_p(n, mat, sizes, cfg, frozen)
        coins = partial(rng.uniforms, rng.derive_key(cfg.seed, rng.TAG_BL_MARK, rnd))
        alive, mat, sizes, rec, added = mark_round(n, alive, mat, sizes, p, coins, delta, rnd)
        mis.extend(added.tolist())
        records.append(rec)
        rnd += 1
    status = STATUS_OK if not len(alive) else "round-limit-exceeded"
    return SolverResult(mis=tuple(sorted(mis)), rounds=records, status=status)


def sbl_round(n, alive, mat, sizes, p, d, cfg, round_index, sample):
    """One sampling round; `sample(retry, alive)` gives the sample mask.
    Returns (blue, red, (alive, mat, sizes), record), blue and red None
    when the gate rejects every sample."""
    valid = ops.valid_mask(mat, sizes)
    for retry in range(cfg.max_retries_per_round + 1):
        sampled = alive[sample(retry, alive)]
        in_sample = np.zeros(n + 1, dtype=bool)
        in_sample[sampled] = True
        induced = (in_sample[mat] | ~valid).all(axis=1)
        induced_dim = int(sizes[induced].max(initial=0))
        if induced_dim <= d:
            break
    rec = SblRoundRecord(round_index, tuple(sampled.tolist()), int(induced.sum()), induced_dim,
                         retry, None, 0, 0, len(alive), len(sizes))
    if induced_dim > d:
        return None, None, (alive, mat, sizes), rec
    bl_cfg = BlConfig(seed=rng.derive_key(cfg.seed, rng.TAG_SBL_INNER, round_index, retry))
    res = run_bl(n, sampled, mat[induced], sizes[induced], bl_cfg)
    assert res.status == STATUS_OK
    blue = np.zeros(n + 1, dtype=bool)
    blue[list(res.mis)] = True
    red = in_sample & ~blue
    dropped = (red[mat] & valid).any(axis=1)
    mat, trimmed, shrunk = shrink(n, *drop_rows(mat, sizes, dropped), blue)
    alive = alive[~in_sample[alive]]
    rec.bl_summary = {
        "status": res.status, "rounds_used": len(res.rounds), "mis_size": len(res.mis)
    }
    rec.edges_removed_red = int(dropped.sum())
    rec.edges_shrunk = shrunk
    rec.remaining_vertices = len(alive)
    rec.remaining_edges = len(trimmed)
    return res.mis, tuple(np.flatnonzero(red).tolist()), (alive, mat, trimmed), rec
