"""Acceptance suite: one test per criterion, one printed verdict line each.

The headline asymptotics (n^o(1) time, failure probability <= 2/n, the
m <= n^beta regime) are not reproducible at desk scale because the
parameter formulas are degenerate for any feasible n, so acceptance is
property-based plus bounded empirical checks.  Monte Carlo checks always
compare Wilson 99% interval endpoints against the analytical bounds; the
random instance families are pinned by explicit seeds so the suite is
deterministic end to end.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines.
"""

from __future__ import annotations

import json
import math
import statistics

from conftest import H0
from hypermis import analysis as an
from hypermis.baseline import enumerate_all_mis, greedy_mis
from hypermis.bl import P_MODE_FIXED, P_MODE_RECOMPUTE, BlConfig, run_bl
from hypermis.core import (
    Hypergraph,
    degree_profile,
    is_independent,
    is_maximal_independent,
    normalize,
)
from hypermis.generate import (
    KIND_LINEAR,
    KIND_MIXED,
    KIND_UNIFORM,
    GenSpec,
    gen,
)
from hypermis.rng import Stream
from hypermis.sbl import SblConfig, run_sbl

TRIALS = 10_000


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def small_instances(count: int, seed0: int = 0):
    """Deterministic mix over all three generators, n <= 18, dims 2-5."""
    kinds = [KIND_UNIFORM, KIND_MIXED, KIND_LINEAR]
    out = []
    i = 0
    while len(out) < count:
        n = 4 + i % 15  # 4..18
        kind = kinds[i % 3]
        seed = seed0 + i
        try:
            if kind == KIND_UNIFORM:
                d = min(2 + i % 4, n)
                m = min(math.comb(n, d), max(2, n))
                h = gen(GenSpec(n=n, kind=kind, seed=seed, m=m, dim=d))
            elif kind == KIND_MIXED:
                h = gen(
                    GenSpec(n=n, kind=kind, seed=seed, m=max(2, n // 2),
                            dim_range=(2, min(5, n)))
                )
            else:
                d = 2 if i % 2 else min(3, n)
                h = gen(GenSpec(n=n, kind=kind, seed=seed, m=max(2, n // 3), dim=d))
            out.append(h)
        except Exception:
            pass
        i += 1
    return out


def test_1_oracle_correctness():
    """Every solver output is a member of the exhaustive MIS list."""
    instances = small_instances(1000)
    failures = 0
    checked = 0
    for i, h in enumerate(instances):
        oracle = set(enumerate_all_mis(h))
        seed = 10_000 + i
        outs = [
            greedy_mis(h, list(h.vertices)),
            run_bl(h, BlConfig(seed=seed, p_mode=P_MODE_FIXED)).mis,
            run_bl(h, BlConfig(seed=seed, p_mode=P_MODE_RECOMPUTE)).mis,
            run_sbl(
                h,
                SblConfig(seed=seed, p_override=0.35, d_cap_override=3,
                          fail_policy="fallback-greedy"),
            ).mis,
        ]
        for out in outs:
            checked += 1
            if out not in oracle:
                failures += 1
    _verdict(
        1, "oracle correctness", failures == 0,
        f"{len(instances)} instances, {checked} solver runs, {failures} failures",
    )


def test_2_scale_correctness():
    """BL and SBL stay correct on 3-uniform instances up to n = 2000."""
    sizes = [200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000]
    failures = 0
    count = 0
    for rep in range(20):
        for n in sizes:
            h = gen(GenSpec(n=n, kind=KIND_UNIFORM, seed=900 + rep * 31 + n, m=2 * n, dim=3))
            count += 1
            bl_res = run_bl(h, BlConfig(seed=rep * 97 + n))
            # p/d-cap chosen so the sampling loop actually runs on
            # 3-uniform inputs (d_cap=3 would shortcut to the direct path)
            sbl_res = run_sbl(
                h, SblConfig(seed=rep * 89 + n, p_override=0.05, d_cap_override=2)
            )
            for mis in (bl_res.mis, sbl_res.mis):
                if not (is_independent(h, mis) and is_maximal_independent(h, mis)):
                    failures += 1
    _verdict(2, "scale correctness", failures == 0,
             f"{count} instances (n=200..2000), {failures} failures")


def _solve_bytes(res) -> bytes:
    """The result fields `hypermis solve` prints, without algo and seed."""
    return json.dumps({"mis": list(res.mis), **res.summary()}).encode()


def test_3_determinism():
    """Two runs of each solver give byte-identical traces and results."""
    pairs = []
    for i, h in enumerate(small_instances(44, seed0=500)):
        pairs.append((h, 7000 + i))
    for i in range(6):
        h = gen(GenSpec(n=300, kind=KIND_UNIFORM, seed=600 + i, m=600, dim=3))
        pairs.append((h, 8000 + i))
    mismatches = 0
    for h, seed in pairs:
        g1 = greedy_mis(h, list(h.vertices))
        g2 = greedy_mis(h, list(h.vertices))
        b1 = run_bl(h, BlConfig(seed=seed))
        b2 = run_bl(h, BlConfig(seed=seed))
        s1 = run_sbl(h, SblConfig(seed=seed, p_override=0.2, d_cap_override=3))
        s2 = run_sbl(h, SblConfig(seed=seed, p_override=0.2, d_cap_override=3))
        same = (
            g1 == g2
            and b1.mis == b2.mis
            and b1.trace_jsonl().encode() == b2.trace_jsonl().encode()
            and _solve_bytes(b1) == _solve_bytes(b2)
            and s1.mis == s2.mis
            and s1.trace_jsonl().encode() == s2.trace_jsonl().encode()
            and _solve_bytes(s1) == _solve_bytes(s2)
        )
        if not same:
            mismatches += 1
    _verdict(3, "determinism", mismatches == 0,
             f"{len(pairs)} (instance, seed) pairs, {mismatches} mismatches")


def _pick_x(h: Hypergraph, stream: Stream, max_size: int):
    """Random non-empty subset of a random edge, smaller than the dim."""
    edges = [e for e in h.edges if len(e) >= 2]
    if not edges:
        return None
    e = edges[stream.randbelow(len(edges))]
    size = 1 + stream.randbelow(min(max_size, len(e) - 1))
    ids = list(e)
    x = []
    while len(x) < size:
        v = ids[stream.randbelow(len(ids))]
        if v not in x:
            x.append(v)
    return tuple(sorted(x))


def test_4_unmark_lemma():
    """Pr[unmarked | marked] < 1/2 at p = 1/(2^(d+1) Delta)."""
    stream = Stream(4040)
    cases = 0
    worst = 0.0
    idx = 0
    pool = small_instances(300, seed0=4000)
    while cases < 100 and idx < len(pool):
        h = normalize(pool[idx])
        idx += 1
        if h.dim < 2:
            continue
        x = _pick_x(h, stream, h.dim - 1)
        if x is None or len(x) >= h.dim:
            continue
        if any(set(e) <= set(x) for e in h.edges):
            continue
        p = an.bl_probability(h)
        est = an.estimate_unmark_given_marked(h, x, p, TRIALS, seed=5000 + cases)
        worst = max(worst, est.wilson_upper_99)
        assert est.wilson_upper_99 < 0.5, (h, x, est)
        cases += 1
    _verdict(4, "unmark lemma", cases == 100,
             f"{cases} (h, x) pairs, worst Wilson upper {worst:.4f} < 0.5")


def _star(t: int) -> Hypergraph:
    """t triangles glued at vertex 1 with disjoint outer pairs."""
    edges = [(1, 2 * i, 2 * i + 1) for i in range(1, t + 1)]
    return Hypergraph(2 * t + 1, edges)


def test_5_neighborhood_hit_lemma():
    """Wilson lower bound beats (1/4)(eps/a)^j on every tested triple.

    The j = 2 cases are pinned to maximum-density stars (eps = 1): at
    the solver's p the success probability is capped at a^-j, so only
    eps = 1 cases give 10^4 trials enough resolution.  j = 1 cases are
    drawn from the generator mix with a power filter |N_j| p^j >= 0.004
    for the same reason (the lemma holds everywhere; the filter only
    keeps the Monte Carlo informative at the mandated trial count).
    """
    stream = Stream(5050)
    results = []
    pool = small_instances(400, seed0=9000)
    idx = 0
    while len(results) < 45 and idx < len(pool):
        h = normalize(pool[idx])
        idx += 1
        if h.dim < 2 or h.dim > 4:
            continue
        x = _pick_x(h, stream, h.dim - 1)
        if x is None:
            continue
        from hypermis.core import neighborhood

        try:
            nj = neighborhood(h, x, 1)
        except Exception:
            continue
        if not nj:
            continue
        p = an.bl_probability(h)
        if len(nj) * p < 0.004:
            continue
        est = an.estimate_neighborhood_hit(h, x, 1, p, TRIALS, seed=6000 + len(results))
        results.append((est.wilson_lower_99, est.threshold))
    assert len(results) == 45
    for t in (4, 5, 6, 7, 8):
        h = _star(t)
        p = an.bl_probability(h)
        est = an.estimate_neighborhood_hit(h, (1,), 2, p, TRIALS, seed=6600 + t)
        results.append((est.wilson_lower_99, est.threshold))
    violations = [r for r in results if r[0] <= r[1]]
    margin = min(lo / bound for lo, bound in results)
    _verdict(5, "neighborhood hit lemma", len(results) == 50 and not violations,
             f"50 (h, x, j) triples, min lower/bound ratio {margin:.2f}, "
             f"{len(violations)} violations")


def test_6_tail_bounds():
    """Exceed frequency of S over k(H) D(H) never contradicts p(H).

    Vacuous cases (p(H) >= 1) are flagged and reported, not silently
    passed; at least 10 cases must be non-vacuous.  Non-vacuous cases
    only arise for dimension-1 migration hypergraphs at desk scale, via
    delta values (log2 n)^2 or explicitly chosen 20/30.
    """
    stream = Stream(6060)
    cases = []
    idx = 0
    while len(cases) < 50:
        idx += 1
        n = 15 + (idx * 3) % 16  # 15..30
        d = 3 + idx % 3  # 3..5
        try:
            h = gen(GenSpec(n=n, kind=KIND_UNIFORM, seed=7000 + idx,
                            m=min(math.comb(n, d), n + idx % 7), dim=d))
        except Exception:
            continue
        hn = normalize(h)
        if hn.dim < 3:
            continue
        edge = next(e for e in hn.edges if len(e) == hn.dim)
        x = edge[: 1 + idx % 2]
        span = hn.dim - len(x)
        if span < 2:
            continue
        j = 1 + idx % max(1, span - 1)
        k = j + 1 + idx % (span - j) if span - j > 1 else j + 1
        try:
            wh = an.migration_hypergraph(hn, x, j, k)
        except Exception:
            continue
        if wh.base.m == 0:
            continue
        delta = (20.0, 30.0, None)[idx % 3] if k - j == 1 else None
        cases.append((hn, wh, delta))
    nonvac = 0
    violations = 0
    for ci, (h, wh, delta) in enumerate(cases):
        p = an.bl_probability(h)
        consts = an.kelsen_constants(wh.base, p, delta)
        threshold = 2.0 ** consts.k_log2 * an.eval_D(wh, p) if consts.k_log2 < 1000 else math.inf
        p_bound = 2.0 ** consts.p_log2 if consts.p_log2 < 1000 else math.inf
        est = an.tail_experiment(wh, p, threshold, TRIALS, seed=7700 + ci)
        if not consts.vacuous:
            nonvac += 1
        if est.wilson_lower_99 >= min(1.0, p_bound):
            violations += 1
    _verdict(
        6, "tail bounds", violations == 0 and nonvac >= 10,
        f"50 migration hypergraphs, {violations} violations, "
        f"{nonvac} non-vacuous (p(H) < 1), {50 - nonvac} vacuous (flagged)",
    )


def test_7_round_growth():
    """Median marking rounds stay within a small constant of (log2 n)^3."""
    ratios = {}
    for exp in (8, 10, 12, 14):
        n = 2 ** exp
        counts = []
        for seed in range(20):
            h = gen(GenSpec(n=n, kind=KIND_UNIFORM, seed=8800 + seed, m=2 * n, dim=3))
            res = run_bl(h, BlConfig(seed=seed))
            assert res.status == "ok"
            counts.append(len(res.rounds))
        ratios[n] = statistics.median(counts) / exp ** 3
    worst = max(ratios.values())
    _verdict(
        7, "round growth", worst <= 5.0,
        "median rounds/(log2 n)^3 = "
        + ", ".join(f"n=2^{int(math.log2(n))}: {r:.3f}" for n, r in ratios.items())
        + f"; max {worst:.3f} <= 5",
    )


def test_8_analytical_regressions():
    """Frozen worked examples plus exhaustive-expectation cross-checks."""
    ok = True
    notes = []

    prof = degree_profile(H0)
    ok &= prof.delta_i == {2: 2.0, 3: 1.0} and prof.delta == 2.0

    pair = an.WeightedHypergraph(Hypergraph(2, [(1, 2)]), {(1, 2): 1.0})
    ok &= an.eval_P(pair, 0.5, ()) == 0.25
    ok &= an.eval_P(pair, 0.5, (1,)) == 0.5
    ok &= an.eval_D(pair, 0.5) == 1.0

    rep = an.potential_report(H0, an.VARIANT_MODIFIED)
    L = math.log2(5)
    ok &= rep.f == {2: 9, 3: 27} and rep.F == {1: 0, 2: 9, 3: 36}
    ok &= abs(rep.v[3] - 1.0) < 1e-9
    ok &= abs(rep.v[2] - L ** 9) / L ** 9 < 1e-9
    ok &= rep.T[2] == rep.v[2]
    ok &= abs(rep.lambda_n - 2 * math.log2(L) / L) < 1e-12

    consts = an.kelsen_constants(H0, 0.5, delta_param=2.0)
    ok &= abs(consts.k_log2 - (7 * math.log2(L + 2) + 4)) < 1e-6
    ok &= abs(consts.kimvu_a[1] - 8.0) < 1e-12
    ok &= abs(consts.kimvu_a[2] - 64.0 * math.sqrt(2)) / 91 < 1e-9

    h2 = Hypergraph(4, [(1, 2, 3), (1, 2, 4)])
    wh = an.migration_hypergraph(h2, [1], 1, 2)
    ok &= wh.weights == {(2,): 2.0, (3,): 1.0, (4,): 1.0}
    notes.append("frozen examples ok" if ok else "frozen example mismatch")

    # 30 random weighted instances: eval_P(empty) vs the full 2^n sweep
    from test_analysis import exact_expected_S, random_weighted

    worst = 0.0
    count = 0
    for i, h in enumerate(small_instances(60, seed0=8100)):
        hn = normalize(h)
        if hn.n > 12 or hn.m == 0:
            continue
        if count >= 30:
            break
        count += 1
        whr = random_weighted(hn, 300 + i)
        p = 0.15 + 0.02 * (i % 20)
        exact = exact_expected_S(whr, p)
        got = an.eval_P(whr, p, ())
        err = abs(got - exact) / max(abs(exact), 1e-300)
        worst = max(worst, err)
        ok &= err < 1e-12
    notes.append(f"{count} expectation sweeps, worst rel err {worst:.2e}")
    _verdict(8, "analytical regressions", ok and count == 30, "; ".join(notes))


def test_9_f_inequality():
    """F(j) >= j F(j-1) + 5 for the modified recurrence, d = 3..8."""
    ok = True
    lines = []
    for d in range(3, 9):
        mod = an.f_inequality_check(d, an.VARIANT_MODIFIED)
        org = an.f_inequality_check(d, an.VARIANT_ORIGINAL)
        ok &= all(mod.values())
        lines.append(
            f"d={d}: modified {'pass' if all(mod.values()) else 'FAIL'}, "
            f"original {'pass' if all(org.values()) else 'fail'} (reported)"
        )
    # the table is part of the analyze report
    from hypermis.cli import main as cli_main
    import io, contextlib, tempfile, os
    from hypermis.core import save_hg

    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "h0.hg")
        save_hg(H0, path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["analyze", path])
        doc = json.loads(buf.getvalue())
        ok &= code == 0
        ok &= all(doc["f_inequality"]["modified-d2"].values())
        ok &= "kelsen-original" in doc["f_inequality"]
    _verdict(9, "F-inequality", ok, "; ".join(lines))
