"""The benchmark's workloads: instance set-up, one operation, its check.

Each workload is described in ``workloads.json`` (generator spec, solver
config, why it was chosen, recorded baseline).  The instance comes from
the workload seed and takes the path ``hypermis gen`` -> ``hypermis
solve`` takes: ``generate.gen``, then ``core.format_hg`` and
``core.parse_hg``.  Every library call goes through a module attribute
(``bl.run_bl``, ``analysis.tail_experiment``, ...) so that the tracer can
wrap it.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from hypermis import analysis, baseline, bl, core, generate, sbl

HERE = Path(__file__).resolve().parent


def load_design() -> dict:
    """The workload descriptions: ``default_seed``, ``note`` and ``workloads``."""
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


# The output check must not show up in a traced run, so it holds the
# library function from before the tracer wraps anything.
_is_mis = core.is_maximal_independent


@dataclass
class Outcome:
    ok: bool
    digest: str
    rounds: int | None
    detail: str = ""


class Workload:
    """One entry of ``workloads.json``; `smoke` picks its tiny instance."""

    def __init__(self, name: str, desc: dict, smoke: bool = False):
        self.name = name
        self.gen = desc["smoke_gen"] if smoke else desc["gen"]
        self.solver = desc.get("smoke_solver", desc["solver"]) if smoke else desc["solver"]
        self.algo = self.solver["algo"]
        self.trace_ops = 1 if smoke else desc["trace_ops"]
        self.instances = 1 if smoke else desc["instances"]

    def instance_seeds(self, seed: int) -> list[int]:
        """Generator seeds of a run's instances.  Operation `index` runs on
        instance ``index % instances``, so that a run's time averages over
        instances as well as solver seeds (the default p of BL follows the
        instance's maximum degree, and with it the number of rounds)."""
        return [seed * 100 + k for k in range(self.instances)]

    def spec(self, seed: int) -> generate.GenSpec:
        g = self.gen
        return generate.GenSpec(n=g["n"], kind=g["kind"], seed=seed, m=g["m"], dim=g["dim"])

    def setup(self, seed: int) -> core.Hypergraph:
        """Generate the instance and round-trip it through the .hg text."""
        h = generate.gen(self.spec(seed))
        parsed = core.parse_hg(core.format_hg(h))
        if parsed != h:
            raise RuntimeError(f"{self.name}: .hg round trip changed the instance")
        return parsed

    def run(self, h: core.Hypergraph, seed: int, index: int):
        """Operation `index` of a run with workload seed `seed`."""
        seed = seed * 1000 + index  # the operation's solver or Monte Carlo seed
        s = self.solver
        if self.algo == "bl":
            return bl.run_bl(h, bl.BlConfig(seed=seed, p_override=s.get("p_override")))
        if self.algo == "sbl":
            cfg = sbl.SblConfig(
                seed=seed, p_override=s["p_override"], d_cap_override=s["d_cap_override"]
            )
            return sbl.run_sbl(h, cfg)
        return workbench_pass(
            h, seed, s["trials"], s["unmark_pairs"], s["hit_pairs"], s["migration_vertices"]
        )

    def reference(self, h: core.Hypergraph) -> None:
        """The host-drift reference: one greedy MIS pass in id order.  Only
        a change to ``baseline.greedy_mis`` moves its time, so a shift in it
        between runs of the same code is the host's."""
        baseline.greedy_mis(h, range(1, h.n + 1))

    def check(self, h: core.Hypergraph, out) -> Outcome:
        """Verify one operation's output, outside the timed region."""
        if self.algo == "workbench":
            problems = workbench_problems(out)
            return Outcome(not problems, _sha(repr(out)), None, "; ".join(problems))
        detail = []
        if out.status != bl.STATUS_OK:
            detail.append(f"status {out.status}")
        if not _is_mis(h, out.mis):
            detail.append("output is not a maximal independent set")
        digest = _sha(json.dumps([list(out.mis), out.status]) + "\n" + out.trace_jsonl())
        return Outcome(not detail, digest, len(out.rounds), "; ".join(detail))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _top(counts: Counter, k: int) -> list:
    return sorted(counts, key=lambda key: (-counts[key], key))[:k]


def workbench_pass(
    h: core.Hypergraph, seed: int, trials: int, unmark_pairs: int, hit_pairs: int, vertices: int
):
    """One analysis pass in the shape of the acceptance suite.

    Degree profile, potential ladder and tail-bound constants of `h`; the
    unmark (lemma 1) Monte Carlo on the `unmark_pairs` most shared vertex
    pairs and the neighborhood-hit (lemma 2) Monte Carlo on the first
    `hit_pairs` of them; and the tail experiment on the migration
    hypergraph (j=1, k=2) of the `vertices` highest-degree vertices.
    Every estimate runs at the marking solver's probability.
    """
    prof = core.degree_profile(h)
    report = analysis.potential_report(h, analysis.VARIANT_MODIFIED)
    p = 1.0 / (2 ** (h.dim + 1) * prof.delta)
    consts = analysis.kelsen_constants(h, p)
    pair_counts = Counter(x for e in h.edges for x in combinations(e, 2))
    vertex_counts = Counter(v for e in h.edges for v in e)
    lemmas = []
    for k, x in enumerate(_top(pair_counts, max(unmark_pairs, hit_pairs))):
        unmark = hit = None
        if k < unmark_pairs:
            unmark = analysis.estimate_unmark_given_marked(h, x, p, trials, seed + k)
        if k < hit_pairs:
            hit = analysis.estimate_neighborhood_hit(h, x, 1, p, trials, seed + k)
        lemmas.append((x, unmark, hit))
    tails = []
    for k, v in enumerate(_top(vertex_counts, vertices)):
        wh = analysis.migration_hypergraph(h, (v,), 1, 2)
        c = analysis.kelsen_constants(wh.base, p)
        threshold = 2.0 ** c.k_log2 * analysis.eval_D(wh, p)
        tails.append((v, c, analysis.tail_experiment(wh, p, threshold, trials, seed + k)))
    return prof, report, consts, lemmas, tails


def _estimate_problems(label: str, est) -> list[str]:
    if not 0 <= est.exceed_count <= est.trials:
        return [f"{label}: count {est.exceed_count} outside [0, {est.trials}]"]
    if not est.wilson_lower_99 <= est.point_estimate <= est.wilson_upper_99:
        return [f"{label}: point estimate outside its Wilson interval"]
    return []


def workbench_problems(out) -> list[str]:
    """The checks the acceptance suite makes, applied to one pass."""
    prof, _, _, lemmas, tails = out
    problems = [] if prof.delta >= 1.0 else [f"delta {prof.delta} < 1"]
    for x, unmark, hit in lemmas:
        if unmark is not None:
            problems += _estimate_problems(f"unmark {x}", unmark)
            if not unmark.wilson_upper_99 < 0.5:
                problems.append(f"lemma 1 violated at {x}")
        if hit is not None:
            problems += _estimate_problems(f"hit {x}", hit)
            if not hit.wilson_lower_99 > hit.threshold:
                problems.append(f"lemma 2 violated at {x}")
    for v, c, tail in tails:
        problems += _estimate_problems(f"tail {v}", tail)
        bound = 2.0 ** c.p_log2 if c.p_log2 < 1000 else float("inf")
        if tail.wilson_lower_99 >= min(1.0, bound):
            problems.append(f"tail bound contradicted at {v}")
    return problems
