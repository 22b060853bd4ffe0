"""Command-line workbench tying generators, solvers, and analysis
together into reproducible experiments.

Subcommands: `gen` writes a random instance in the .hg text format,
`solve` runs one of the solvers and emits a result JSON (optionally a
JSONL round trace), `verify` checks a claimed MIS, `analyze` dumps the
degree/potential/bound report as JSON, and `experiment` runs a Monte
Carlo check and emits CSV rows.

Every run echoes its fully resolved configuration (including clamped or
derived parameters) to stderr, plus a warning when the instance violates
the edge-count regime m <= n^beta; the warning is informational, never
an error.  Exit codes: 0 success, 1 solver/verification failure, 2 usage
errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import analysis, bl, generate, sbl
from .baseline import greedy_mis
from .core import (
    Hypergraph,
    format_hg,
    is_independent,
    is_maximal_independent,
    load_hg,
    save_hg,
    vertex_tuple,
)


def _echo_config(cfg: dict) -> None:
    print(f"config: {json.dumps(cfg, sort_keys=True)}", file=sys.stderr)


def _edge_bound_warning(h: Hypergraph) -> None:
    beta = sbl.edge_bound_beta(h.n)
    if beta is None:
        return
    cap = float(h.n) ** beta
    if h.m > cap:
        print(
            f"warning: m={h.m} exceeds n^beta={cap:.4g} "
            f"(beta={beta:.4g}); outside the analyzed edge-count regime",
            file=sys.stderr,
        )


def _parse_ids(text: str) -> tuple[int, ...]:
    return vertex_tuple(int(tok) for tok in text.replace(",", " ").split())


def _check_ids(ids, n: int, what: str) -> None:
    """ValueError naming the first entry of `ids` that is not an integer in 1..n."""
    for v in ids:
        if type(v) is not int or not 1 <= v <= n:
            raise ValueError(f"{what} id {json.dumps(v)} is not a vertex id in [1, {n}]")


def _cmd_gen(args) -> int:
    dim_range = None
    if args.dim_range:
        lo, hi = args.dim_range.split(":")
        dim_range = (int(lo), int(hi))
    spec = generate.GenSpec(
        n=args.n,
        kind=args.kind,
        seed=args.seed,
        m=args.m,
        edge_probability=args.edge_probability,
        dim=args.dim,
        dim_range=dim_range,
    )
    _echo_config(
        {
            "command": "gen", "n": spec.n, "kind": spec.kind, "seed": spec.seed,
            "m": spec.m, "edge_probability": spec.edge_probability,
            "dim": spec.dim, "dim_range": list(dim_range) if dim_range else None,
            "out": args.out,
        }
    )
    h = generate.gen(spec)
    text_comment = f"kind={spec.kind} seed={spec.seed}"
    if args.out:
        save_hg(h, args.out, comment=text_comment)
    else:
        sys.stdout.write(format_hg(h, text_comment))
    return 0


def _solve_config(args, h: Hypergraph) -> dict:
    cfg = {
        "command": "solve", "algo": args.algo, "seed": args.seed,
        "input_n": h.n, "input_m": h.m, "input_dim": h.dim,
        "trace": args.trace,
    }
    if args.algo == "bl":
        bcfg = _bl_config(args)
        cfg.update(
            p_mode=bcfg.p_mode,
            p_override=bcfg.p_override,
            max_rounds=bcfg.max_rounds or bl.default_max_rounds(h.n),
        )
    if args.algo == "sbl":
        scfg = _sbl_config(args)
        if h.n < 2:  # degenerate instance: the solver takes the direct path
            cfg.update(retries=scfg.max_retries_per_round, fail_policy=scfg.fail_policy)
            return cfg
        params = sbl.derive_params(h.n, h.m, scfg)
        max_rounds = scfg.max_rounds or sbl.default_max_rounds(h.n, params.p)
        r = 2.0 * math.log2(h.n) / params.p
        d_analysis = math.log2(r * max(h.m, 1) * h.n) / math.log2(1.0 / params.p) - 1.0
        cfg.update(
            p=params.p, d_cap=params.d, stop_threshold=params.stop_threshold,
            max_rounds=max_rounds, retries=scfg.max_retries_per_round,
            fail_policy=scfg.fail_policy,
            within_edge_bound=params.within_edge_bound,
            d_suggested_by_analysis=d_analysis,
        )
    return cfg


def _bl_config(args) -> bl.BlConfig:
    return bl.BlConfig(
        seed=args.seed,
        p_mode=bl.P_MODE_FIXED if args.fixed_p else bl.P_MODE_RECOMPUTE,
        p_override=args.p,
        max_rounds=args.max_rounds,
    )


def _sbl_config(args) -> sbl.SblConfig:
    return sbl.SblConfig(
        seed=args.seed,
        alpha_override=args.alpha,
        d_cap_override=args.d_cap,
        p_override=args.p,
        stop_threshold_override=args.stop_threshold,
        max_retries_per_round=args.retries,
        max_rounds=args.max_rounds,
        fail_policy=args.fail_policy,
        check_invariants=args.check_invariants,
    )


def _cmd_solve(args) -> int:
    h = load_hg(args.input)
    _echo_config(_solve_config(args, h))
    _edge_bound_warning(h)
    trace = ""
    extra = {}
    if args.algo == "greedy":
        mis = greedy_mis(h, list(h.vertices))
        status = "ok"
    elif args.algo == "bl":
        res = bl.run_bl(h, _bl_config(args))
        mis, status, trace = res.mis, res.status, res.trace_jsonl()
        extra["rounds_used"] = len(res.rounds)
    else:
        res = sbl.run_sbl(h, _sbl_config(args))
        mis, status, trace = res.mis, res.status, res.trace_jsonl()
        extra.update(
            rounds_used=len(res.rounds),
            retries_total=res.retries_total,
            fallback=res.fallback,
            exit_reason=res.exit_reason,
        )
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace)
    doc = {"mis": list(mis), "algo": args.algo, "seed": args.seed, "status": status}
    doc.update(extra)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0 if status == "ok" else 1


def _cmd_verify(args) -> int:
    h = load_hg(args.input)
    _echo_config({"command": "verify", "input_n": h.n, "input_m": h.m, "mis_file": args.mis})
    with open(args.mis, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _check_ids(doc["mis"], h.n, "mis")
    mis = vertex_tuple(doc["mis"])
    indep = is_independent(h, mis)
    maximal = indep and is_maximal_independent(h, mis)
    print(f"independent: {str(indep).lower()}")
    print(f"maximal: {str(maximal).lower()}")
    return 0 if (indep and maximal) else 1


def _cmd_analyze(args) -> int:
    h = load_hg(args.input)
    variant = (
        analysis.VARIANT_ORIGINAL if args.variant == "original" else analysis.VARIANT_MODIFIED
    )
    _echo_config(
        {
            "command": "analyze", "input_n": h.n, "input_m": h.m,
            "input_dim": h.dim, "variant": variant, "delta": args.delta,
            "p": args.p, "budget": args.budget,
        }
    )
    _edge_bound_warning(h)
    work = h.m * (2 ** h.dim)
    if work > args.budget:
        print(
            f"error: degree enumeration needs ~{work} subset evaluations, "
            f"over the budget of {args.budget}; raise --budget to force",
            file=sys.stderr,
        )
        return 1
    prof = analysis.degree_profile(h)
    p = args.p if args.p is not None else analysis.bl_probability(h)
    consts = analysis.kelsen_constants(h, p, args.delta)
    report = analysis.potential_report(h, variant)
    doc = {
        "n": h.n,
        "m": h.m,
        "dim": h.dim,
        "degree_profile": {
            "delta": prof.delta,
            "delta_i": {str(i): v for i, v in sorted(prof.delta_i.items())},
        },
        "potentials": {
            "variant": report.variant,
            "f": {str(i): v for i, v in sorted(report.f.items())},
            "F": {str(i): v for i, v in sorted(report.F.items())},
            "v_log2": {str(i): v for i, v in sorted(report.v_log2.items())},
            "T_log2": {str(i): v for i, v in sorted(report.T_log2.items())},
            "q_log2": {str(i): v for i, v in sorted(report.q_log2.items())},
            "lambda_n": report.lambda_n,
        },
        "bound_constants": {
            "p_marking": p,
            "delta_param": consts.delta_param,
            "k_log2": consts.k_log2,
            "p_log2": consts.p_log2,
            "vacuous": consts.vacuous,
            "kimvu_a": {str(r): v for r, v in sorted(consts.kimvu_a.items())},
        },
        "f_inequality": {
            var: {str(j): ok for j, ok in sorted(analysis.f_inequality_check(h.dim, var).items())}
            for var in (analysis.VARIANT_MODIFIED, analysis.VARIANT_ORIGINAL)
        }
        if h.dim >= 2
        else {},
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_experiment(args) -> int:
    h = load_hg(args.input)
    x = _parse_ids(args.x) if args.x else ()
    _check_ids(x, h.n, "--x")
    p = args.p if args.p is not None else analysis.bl_probability(h)
    _echo_config(
        {
            "command": "experiment", "which": args.which, "input_n": h.n,
            "input_m": h.m, "seed": args.seed, "trials": args.trials,
            "x": list(x), "j": args.j, "k": args.k, "p": p,
            "delta": args.delta, "lambda": getattr(args, "lam"),
        }
    )
    _edge_bound_warning(h)
    if args.which == "lemma1":
        est = analysis.estimate_unmark_given_marked(h, x, p, args.trials, args.seed)
        params, bound = {"x": list(x), "p": p}, 0.5
    elif args.which == "lemma2":
        est = analysis.estimate_neighborhood_hit(h, x, args.j, p, args.trials, args.seed)
        params, bound = {"x": list(x), "j": args.j, "p": p}, est.threshold
    elif args.which == "tail":
        wh = analysis.migration_hypergraph(h, x, args.j, args.k)
        consts = analysis.kelsen_constants(wh.base, p, args.delta)
        dd = analysis.eval_D(wh, p)
        threshold = 2.0 ** consts.k_log2 * dd if consts.k_log2 < 1000 else float("inf")
        p_bound = 2.0 ** consts.p_log2 if consts.p_log2 < 1000 else float("inf")
        est = analysis.tail_experiment(wh, p, threshold, args.trials, args.seed)
        params = {
            "x": list(x), "j": args.j, "k": args.k, "p": p,
            "delta": consts.delta_param, "D": dd,
            "k_log2": consts.k_log2, "p_log2": consts.p_log2,
            "vacuous": consts.vacuous,
        }
        bound = min(1.0, p_bound)
    else:  # migration
        wh = analysis.migration_hypergraph(h, x, args.j, args.k)
        prof = analysis.degree_profile(h)
        lam = getattr(args, "lam")
        if lam is None:
            lam = math.log2(h.n) ** 2
        r = args.k - args.j
        threshold = (1.0 + analysis.kimvu_a(r) * lam ** r) * prof.delta_i[
            len(x) + args.k
        ] ** args.j
        p_bound = 2.0 * math.e ** 2 * math.exp(-lam) * h.n ** (r - 1)
        est = analysis.tail_experiment(wh, p, threshold, args.trials, args.seed)
        params = {"x": list(x), "j": args.j, "k": args.k, "p": p, "lambda": lam}
        bound = min(1.0, p_bound)
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(
        ["experiment", "params", "trials", "estimate", "wilson_low", "wilson_high", "paper_bound"]
    )
    out.writerow(
        [
            args.which,
            json.dumps(params, sort_keys=True),
            est.trials,
            est.point_estimate,
            est.wilson_lower_99,
            est.wilson_upper_99,
            bound,
        ]
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hypermis",
        description="Hypergraph MIS solvers and analysis workbench",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance (.hg)")
    g.add_argument("--n", type=int, required=True)
    g.add_argument(
        "--kind",
        choices=[generate.KIND_UNIFORM, generate.KIND_MIXED, generate.KIND_LINEAR],
        required=True,
    )
    g.add_argument("--m", type=int)
    g.add_argument("--edge-probability", type=float)
    g.add_argument("--dim", type=int)
    g.add_argument("--dim-range", help="LO:HI edge sizes for mixed-dims")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", help="output path (stdout when omitted)")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="run a solver on an instance")
    s.add_argument("input", metavar="IN.hg")
    s.add_argument("--algo", choices=["greedy", "bl", "sbl"], required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--trace", help="write per-round JSONL trace here")
    s.add_argument("--p", type=float, help="marking/sampling probability override")
    s.add_argument("--alpha", type=float, help="sampling exponent override (sbl)")
    s.add_argument("--d-cap", type=int, help="dimension cap override (sbl)")
    s.add_argument("--stop-threshold", type=int, help="residual size cutoff (sbl)")
    s.add_argument("--max-rounds", type=int)
    s.add_argument("--retries", type=int, default=20, help="resamples per round (sbl)")
    s.add_argument(
        "--fail-policy",
        choices=[sbl.FAIL_ABORT, sbl.FAIL_FALLBACK_GREEDY],
        default=sbl.FAIL_FALLBACK_GREEDY,
    )
    s.add_argument(
        "--fixed-p", action="store_true",
        help="freeze the marking probability at its initial value (bl)",
    )
    s.add_argument("--check-invariants", action="store_true")
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="check a claimed MIS (exit 0/1)")
    v.add_argument("input", metavar="IN.hg")
    v.add_argument("mis", metavar="MIS.json")
    v.set_defaults(func=_cmd_verify)

    a = sub.add_parser("analyze", help="degree/potential/bound report (JSON)")
    a.add_argument("input", metavar="IN.hg")
    a.add_argument("--variant", choices=["original", "modified"], default="modified")
    a.add_argument("--delta", type=float, help="tail-bound delta (default log2(n)^2)")
    a.add_argument("--p", type=float, help="marking probability (default 1/(2^(d+1) Delta))")
    a.add_argument(
        "--budget", type=int, default=100_000_000,
        help="max subset evaluations for degree enumeration",
    )
    a.set_defaults(func=_cmd_analyze)

    e = sub.add_parser("experiment", help="Monte Carlo checks (CSV)")
    e.add_argument("which", choices=["tail", "lemma1", "lemma2", "migration"])
    e.add_argument("input", metavar="IN.hg")
    e.add_argument("--seed", type=int, required=True)
    e.add_argument("--trials", type=int, required=True)
    e.add_argument("--x", help="comma-separated vertex ids")
    e.add_argument("--j", type=int)
    e.add_argument("--k", type=int)
    e.add_argument("--p", type=float)
    e.add_argument("--delta", type=float)
    e.add_argument("--lambda", dest="lam", type=float)
    e.set_defaults(func=_cmd_experiment)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
