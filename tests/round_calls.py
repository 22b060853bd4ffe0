"""Print the fixed cost of a marking round: rounds, ms per round,
Python-level calls per round, and the profiled ms per round of its
layers.

    python3 tests/round_calls.py --n 4096 --m 8192 --dim 3 --gen-seed 7100 --seeds 1-12
    python3 tests/round_calls.py --n 4096 --m 256 --dim 6 --p 0.05 --seeds 1-32
    python3 tests/round_calls.py --n 40 --m 30 --kind mixed-dims --dim-range 10:12 --gen-seed 1

One instance is made from the ``GenSpec`` flags; ``bl.run_bl`` then runs
on it once per solver seed with the ``BlConfig`` flags.  The seeds run
untimed once (warm-up), then timed (``perf_counter``), then under
cProfile; ms per round is the timed total over all rounds, and calls per
round is the profile's total ``ncalls`` (primitive and recursive) over
all rounds.  Two lines split the round by layer, from the same profile:
``self_ms_per_round`` is the own time (``tottime``) and
``cum_ms_per_round`` the time with callees (``cumtime``) of
``State.cleanup``, ``State.incidences``, ``SubsetCounts.holders``,
``SubsetCounts.recount`` and ``rng.uniforms`` (the benchmark's tracer
wraps module functions only, so it cannot time these).  Own time holds
the function's bytecode and the numpy operators and ufuncs it applies,
not the functions and methods it calls; both include profiler overhead,
so they compare only with another profiled run.  Imports hypermis from
the ``src/`` beside this directory, so a copy of the script in another
checkout measures that checkout.
Not collected by pytest (the name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypermis import bl, generate  # noqa: E402


# (file, function) of each layer timed on its own
LAYERS = {
    ("bl.py", "cleanup"): "State.cleanup",
    ("bl.py", "incidences"): "State.incidences",
    ("_edgeops.py", "holders"): "SubsetCounts.holders",
    ("_edgeops.py", "recount"): "SubsetCounts.recount",
    ("rng.py", "uniforms"): "rng.uniforms",
}


def _range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--kind", default=generate.KIND_UNIFORM)
    ap.add_argument("--dim", type=int)
    ap.add_argument("--dim-range", help="lo:hi, for mixed-dims")
    ap.add_argument("--gen-seed", type=int, default=1)
    ap.add_argument("--seeds", type=_range, default=[1], help="solver seeds, as a or a-b")
    ap.add_argument("--p", type=float, help="BlConfig.p_override")
    ap.add_argument("--p-mode", default=bl.P_MODE_RECOMPUTE)
    ap.add_argument("--max-rounds", type=int)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    dim_range = tuple(map(int, args.dim_range.split(":"))) if args.dim_range else None
    spec = generate.GenSpec(n=args.n, kind=args.kind, seed=args.gen_seed, m=args.m,
                            dim=args.dim, dim_range=dim_range)
    h = generate.gen(spec)
    cfgs = [bl.BlConfig(seed=s, p_mode=args.p_mode, p_override=args.p,
                        max_rounds=args.max_rounds) for s in args.seeds]

    def solve_all():
        return sum(len(bl.run_bl(h, cfg).rounds) for cfg in cfgs)

    solve_all()
    start = time.perf_counter()
    rounds = solve_all()
    seconds = time.perf_counter() - start
    prof = cProfile.Profile()
    prof.runcall(solve_all)
    stats = pstats.Stats(prof)
    own, cum = {}, {}
    for (path, _, name), (_, _, tottime, cumtime, _) in stats.stats.items():
        layer = LAYERS.get((Path(path).name, name))
        if layer:
            own[layer], cum[layer] = tottime, cumtime
    print(f"instance: {spec}")
    print(f"solves: {len(cfgs)}")
    print(f"rounds: {rounds}")
    print(f"seconds: {seconds:.4f}")
    print(f"ms_per_round: {1000 * seconds / max(rounds, 1):.4f}")
    print(f"calls_per_round: {stats.total_calls / max(rounds, 1):.1f}")
    per_round = 1000 / max(rounds, 1)
    for label, times in ("self_ms_per_round", own), ("cum_ms_per_round", cum):
        split = (f"{layer} {per_round * times.get(layer, 0.0):.4f}" for layer in LAYERS.values())
        print(f"{label}:", ", ".join(split))
    return 0


if __name__ == "__main__":
    sys.exit(main())
