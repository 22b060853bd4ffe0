"""Sampling MIS solver: repeatedly sample a vertex subset, solve the
induced low-dimension hypergraph by random marking, and filter.

Per round, every remaining vertex is sampled independently with
probability p.  If the hypergraph induced on the sample has an edge
larger than the dimension cap d, the sample is redrawn (fresh
randomness, bounded retries); otherwise the marking solver runs on it
and colors the sample: blue vertices join the independent set, red ones
are discarded forever.  Every edge touching a red vertex can no longer
become fully blue and is dropped; surviving edges shrink by the blue
vertices.  The loop stops once fewer than ceil(1/p^2) vertices remain
(or a round cap hits) and a sequential greedy pass finishes the
residual hypergraph.  Inputs whose dimension is already <= d skip
straight to the marking solver.

The working hypergraph is the marking solver's matrix state
(:class:`hypermis.bl.State`), built once and updated in place across
rounds: one gather of the sample's incidences gives the induced edges
and, once the sample is colored, the edges touching a red vertex and
those holding a blue one; the blue shrink is the same
:meth:`~hypermis.bl.State.cleanup` a marking round runs, which touches
only the edges holding a blue vertex.  The induced edges, normalized
already, become the inner marking run's state as they are, compacted;
the solve's result is checked for maximality once, at the end (each
inner result too under check_invariants).  Only the residual becomes
tuples, once, for the greedy pass.

Default parameters follow the asymptotic recipe p = n^(-1/log2^(3) n)
and d = log2^(2) n / (4 log2^(3) n); both are degenerate at desk scale
(the d formula is < 1 for any feasible n), so d clamps to >= 3 and
everything is overridable.  All logarithms are base 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _edgeops as ops
from . import rng
from .baseline import greedy_mis_over
from .bl import STATUS_OK, BlConfig, RoundRecord, SolverResult, State, make_state, run_bl
from .core import Hypergraph, InternalInvariantError, is_maximal_independent

FAIL_ABORT = "abort"
FAIL_FALLBACK_GREEDY = "fallback-greedy"

FALLBACK_GREEDY = "greedy-ran"
FALLBACK_BL_DIRECT = "bl-direct-ran"


class DegenerateParamsError(ValueError):
    """n is too small for the asymptotic parameter formulas and no
    override was supplied."""


class DimensionGateExhausted(RuntimeError):
    """Every allowed resample produced an induced edge above the cap."""


class RoundLimitError(RuntimeError):
    """An inner marking run failed to finish within its round budget."""


@dataclass(frozen=True)
class SblConfig:
    seed: int
    alpha_override: float | None = None
    d_cap_override: int | None = None
    p_override: float | None = None
    stop_threshold_override: int | None = None
    max_retries_per_round: int = 20
    max_rounds: int | None = None
    fail_policy: str = FAIL_FALLBACK_GREEDY
    check_invariants: bool = False

    def __post_init__(self):
        if self.alpha_override is not None and self.alpha_override <= 0:
            raise ValueError("alpha_override must be > 0")
        if self.d_cap_override is not None and self.d_cap_override < 2:
            raise ValueError("d_cap_override must be >= 2")
        if self.p_override is not None and not 0.0 < self.p_override < 1.0:
            raise ValueError("p_override must lie in (0, 1)")
        if self.stop_threshold_override is not None and self.stop_threshold_override < 1:
            raise ValueError("stop_threshold_override must be >= 1")
        if self.max_retries_per_round < 0:
            raise ValueError("max_retries_per_round must be >= 0")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.fail_policy not in (FAIL_ABORT, FAIL_FALLBACK_GREEDY):
            raise ValueError(f"unknown fail_policy {self.fail_policy!r}")


@dataclass(frozen=True)
class SblParams:
    p: float
    d: int
    stop_threshold: int
    within_edge_bound: bool


def _loglog(n: int) -> tuple[float, float]:
    """(log2^(2) n, log2^(3) n), each 0.0 where its argument is <= 1."""
    log2_ = math.log2(math.log2(n)) if n > 2 else 0.0
    return log2_, math.log2(log2_) if log2_ > 0 else 0.0


def edge_bound_beta(n: int) -> float | None:
    """Exponent of the analyzed edge-count regime m <= n^beta,
    beta = log2^(2) n / (8 (log2^(3) n)^2); None when log2^(3) n <= 0
    (n <= 4), below the asymptotic regime, where the bound says nothing."""
    log2_, log3 = _loglog(n)
    return log2_ / (8.0 * log3 * log3) if log3 > 0 else None


def _finite_ceil(x: float, name: str, flag: str) -> int:
    """ceil(x); a ValueError asking for the override `flag` if x is infinite."""
    if not math.isfinite(x):
        raise ValueError(f"{name} is not finite; supply {flag}")
    return math.ceil(x)


def derive_params(n: int, m: int, cfg: SblConfig) -> SblParams:
    """Resolve (p, d, stop_threshold) and evaluate the edge-count check.

    p = 1/n^alpha with alpha = 1/log2^(3) n, d = floor of
    log2^(2) n / (4 log2^(3) n) clamped to >= 3, stop = ceil(1/p^2), and
    the edge bound asks m <= n^beta (:func:`edge_bound_beta`; always
    within when the bound is vacuous).  Raises DegenerateParamsError
    when a formula needs log2^(3) n > 0 (i.e. n >= 5) and no override
    covers it, and ValueError when p is so small that 1/p^2 is not finite
    and no stop threshold is given.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    log2_, log3 = _loglog(n)

    if cfg.p_override is not None:
        p = cfg.p_override
    else:
        alpha = cfg.alpha_override
        if alpha is None:
            if log3 <= 0:
                raise DegenerateParamsError(
                    f"n={n} gives log2^(3) n <= 0; supply --p or --alpha"
                )
            alpha = 1.0 / log3
        p = float(n) ** (-alpha)
        if not 0.0 < p < 1.0:
            raise DegenerateParamsError(f"derived p={p} outside (0, 1)")

    if cfg.d_cap_override is not None:
        d = cfg.d_cap_override
    else:
        if log3 <= 0:
            raise DegenerateParamsError(
                f"n={n} gives log2^(3) n <= 0; supply --d-cap"
            )
        d = max(3, math.floor(log2_ / (4.0 * log3)))

    stop = cfg.stop_threshold_override
    if stop is None:
        stop = _finite_ceil(1.0 / (p * p) if p * p else math.inf,
                            f"stop threshold ceil(1/p^2) at p={p}", "--stop-threshold")

    beta = edge_bound_beta(n)
    within = beta is None or m <= float(n) ** beta
    return SblParams(p=p, d=d, stop_threshold=stop, within_edge_bound=within)


@dataclass
class SblRoundRecord(RoundRecord):
    round: int
    sampled: tuple[int, ...]
    induced_edges: int
    induced_dim: int
    retries: int
    bl_summary: dict | None
    edges_removed_red: int
    edges_shrunk: int
    remaining_vertices: int
    remaining_edges: int


@dataclass
class SblResult(SolverResult):
    """A solve's result, with why its loop stopped and the parameters."""

    exit_reason: str = ""
    params: SblParams | None = None

    @property
    def fallback(self) -> str:
        """Which finisher ran: the marking solver on the whole input, or
        the greedy pass on the loop's residual."""
        return FALLBACK_BL_DIRECT if self.exit_reason == EXIT_BL_DIRECT else FALLBACK_GREEDY

    @property
    def retries_total(self) -> int:
        """Dimension-gate resamples, summed over the rounds."""
        return sum(rec.retries for rec in self.rounds)

    def result_json(self) -> str:
        return json.dumps(
            {
                "mis": list(self.mis),
                "status": self.status,
                "rounds_used": len(self.rounds),
                "retries_total": self.retries_total,
                "fallback": self.fallback,
            }
        )


Sampler = Callable[[int, np.ndarray], np.ndarray]


def _default_sampler(cfg: SblConfig, p: float, round_index: int) -> Sampler:
    def sample(retry: int, ids: np.ndarray) -> np.ndarray:
        key = rng.derive_key(cfg.seed, rng.TAG_SBL_SAMPLE, round_index, retry)
        return rng.uniforms(key, ids) < p

    return sample


def sbl_round(
    state: State,
    p: float,
    d: int,
    cfg: SblConfig,
    round_index: int,
    sampler: Sampler | None = None,
):
    """One sample → gate → mark → filter round on `state`, as built by
    :func:`hypermis.bl.make_state` or returned by the previous round.

    Returns (blue, red, next_state, next_alive, record): blue the sorted
    tuple of the sample's blue ids, red the sorted array of its red ones,
    next_state `state` updated in place and next_alive its sorted array
    of alive ids; when every allowed resample trips the dimension gate,
    returns (None, None, state, alive, record), alive the ids the round
    began with, and the caller applies cfg.fail_policy.  The failed path
    leaves the state untouched.  Raises RoundLimitError when the inner
    marking run hits its round cap.  The inner run's result is checked for
    maximality on the induced rows only under cfg.check_invariants.
    """
    alive = state.alive
    sample = sampler or _default_sampler(cfg, p, round_index)
    for retry in range(cfg.max_retries_per_round + 1):
        sampled = alive[sample(retry, alive)]
        k, rows = state.incidences(sampled)
        induced = state.full(rows)
        induced_dim = int(state.size[induced].max(initial=0))
        if induced_dim <= d:
            break

    # the record of a rejected round; a completed round fills in the rest
    rec = SblRoundRecord(
        round=round_index,
        sampled=tuple(sampled.tolist()),
        induced_edges=len(induced),
        induced_dim=induced_dim,
        retries=retry,
        bl_summary=None,
        edges_removed_red=0,
        edges_shrunk=0,
        remaining_vertices=len(alive),
        remaining_edges=state.m,
    )
    if induced_dim > d:
        return None, None, state, alive, rec

    # the induced rows are normalized already: compacted, they become the
    # inner state as they are
    mat, sizes = state.compact(induced)
    bl_cfg = BlConfig(seed=rng.derive_key(cfg.seed, rng.TAG_SBL_INNER, round_index, retry))
    bl_res = run_bl(State(state.n, sampled, mat, sizes), bl_cfg)
    if bl_res.status != STATUS_OK:
        raise RoundLimitError(
            f"inner marking run exceeded its round budget in round {round_index}"
        )
    blue = np.array(bl_res.mis, dtype=np.int64)
    if cfg.check_invariants and not ops.is_maximal_on(mat, sizes, blue, sampled):
        raise InternalInvariantError("marking solver produced a non-maximal set")
    is_blue = ops.flags(len(sampled), sampled.searchsorted(blue))
    red = sampled[~is_blue]

    # an edge touching a red vertex can never become fully blue; the
    # live edges holding a blue vertex shrink
    dropped = ops.distinct(rows[~is_blue[k]])
    state.drop(dropped)
    touched = ops.distinct(rows[is_blue[k]])
    shrunk, _ = state.cleanup(blue, touched[state.size[touched] > 0])
    state.alive = ops.without(alive, sampled)
    rec.bl_summary = {
        "status": bl_res.status,
        "rounds_used": len(bl_res.rounds),
        "mis_size": len(bl_res.mis),
    }
    rec.edges_removed_red = len(dropped)
    rec.edges_shrunk = len(shrunk)
    rec.remaining_vertices = len(state.alive)
    rec.remaining_edges = state.m
    return bl_res.mis, red, state, state.alive, rec


EXIT_STOP_THRESHOLD = "stop-threshold"
EXIT_MAX_ROUNDS = "max-rounds"
EXIT_DIMENSION_GATE = "dimension-gate"
EXIT_BL_DIRECT = "bl-direct"
EXIT_INNER_ROUND_LIMIT = "inner-round-limit"


def default_max_rounds(n: int, p: float) -> int:
    """Sampling-round cap: ceil(2 log2(n) / p), at least 1; ValueError
    when it is not finite."""
    cap = 2.0 * math.log2(n) / p
    return max(1, _finite_ceil(cap, f"round cap ceil(2 log2(n) / p) at p={p}", "--max-rounds"))


def run_sbl(h: Hypergraph, cfg: SblConfig) -> SblResult:
    """Full solver: parameter derivation, sampling loop, residual greedy.

    Parameters are fixed from the initial vertex count and never
    recomputed as the vertex set shrinks.  Both the vertex-count
    threshold and the round cap bound the loop; whichever fires is
    recorded in exit_reason, as is an exhausted dimension gate or an
    inner round cap hit, which raise instead under fail_policy "abort".
    On ok the result is checked to be a maximal independent set of the
    input.
    """
    state = make_state(h)
    # a 0- or 1-vertex instance has dimension <= 1 and always takes the
    # direct path; the parameter formulas are not defined there
    params = derive_params(h.n, state.m, cfg) if h.n >= 2 else None

    if params is None or state.dim <= params.d:
        bl_cfg = BlConfig(seed=rng.derive_key(cfg.seed, rng.TAG_SBL_INNER, 0, 0))
        bl_res = run_bl(state, bl_cfg)
        return _result(h, mis=bl_res.mis, status=bl_res.status, exit_reason=EXIT_BL_DIRECT,
                       params=params)

    max_rounds = cfg.max_rounds or default_max_rounds(h.n, params.p)

    blues = [state.alive[:0]]  # the ids each round colors blue
    records: list[SblRoundRecord] = []
    exit_reason = EXIT_STOP_THRESHOLD
    while len(state.alive) >= params.stop_threshold:
        rnd = len(records)
        if rnd >= max_rounds:
            exit_reason = EXIT_MAX_ROUNDS
            break
        try:
            blue, _, state, _, rec = sbl_round(state, params.p, params.d, cfg, rnd)
        except RoundLimitError:
            if cfg.fail_policy == FAIL_ABORT:
                raise
            exit_reason = EXIT_INNER_ROUND_LIMIT
            break
        records.append(rec)
        if blue is None:
            if cfg.fail_policy == FAIL_ABORT:
                raise DimensionGateExhausted(
                    f"round {rnd}: {cfg.max_retries_per_round + 1} samples all "
                    f"induced dimension > {params.d}"
                )
            exit_reason = EXIT_DIMENSION_GATE
            break
        blues.append(np.array(blue, dtype=np.int64))
        if cfg.check_invariants:
            blue_ids = np.sort(np.concatenate(blues))
            if not ops.is_maximal_on(*h.arrays, blue_ids, blue_ids[:0]):
                raise InternalInvariantError("blue set lost independence")

    residual = greedy_mis_over(ops.matrix_to_edges(state.mat, state.sizes), state.alive.tolist())
    mis = tuple(np.sort(np.concatenate([*blues, np.array(residual, dtype=np.int64)])).tolist())
    return _result(h, mis=mis, rounds=records, exit_reason=exit_reason, params=params)


def _result(h: Hypergraph, **fields) -> SblResult:
    """SblResult(**fields), checked to be a maximal independent set of `h`
    when its status is ok."""
    result = SblResult(**fields)
    if result.status == STATUS_OK and not is_maximal_independent(h, result.mis):
        raise InternalInvariantError("sampling solver produced a non-maximal set")
    return result
