"""Print the fixed cost of a marking round, or of a sampling round:
rounds, ms per round, Python-level calls per round, and the profiled ms
per round of its layers.

    python3 tests/round_calls.py --n 4096 --m 8192 --dim 3 --gen-seed 7100 --seeds 1-12
    python3 tests/round_calls.py --n 4096 --m 256 --dim 6 --p 0.05 --seeds 1-32
    python3 tests/round_calls.py --n 40 --m 30 --kind mixed-dims --dim-range 10:12 --gen-seed 1
    python3 tests/round_calls.py --n 4096 --m 8192 --dim 4 --gen-seed 100 --sbl-p 0.08 --d-cap 3 --seeds 1-8

One instance is made from the ``GenSpec`` flags; ``bl.run_bl`` then runs
on it once per solver seed with the ``BlConfig`` flags, or, with
``--sbl-p``, ``sbl.run_sbl`` with that sampling probability and the
dimension cap ``--d-cap``, and a round is then a sampling round.  The
seeds run untimed once (warm-up), then timed (``perf_counter``), then
under cProfile; ms per round is the timed total over all rounds, and
calls per round is the profile's total ``ncalls`` (primitive and
recursive) over all rounds.  Two lines split the round by layer, from
the same profile: ``self_ms_per_round`` is the own time (``tottime``)
and ``cum_ms_per_round`` the time with callees (``cumtime``) of the
methods in ``LAYERS``, of the coin draws (``rng.uniforms`` for SBL's
samples, ``rng.marks`` for one marking round and ``rng.mark_grid`` for a
block of them) and of the final check's ``is_maximal_on`` (the
benchmark's tracer wraps module functions only, so it cannot time the
methods).  Own time holds the function's bytecode and the numpy
operators and ufuncs it applies, not the functions and methods it
calls; both include profiler overhead, so they compare only with another
profiled run.  ``SubsetCounts.__init__`` numbers the subsets and lists
their holders.  One more pass counts the marking coin draws and prints
``rounds_per_draw``; the marking rounds by path, ``single_rounds`` (drawn
one at a time, ``rng.marks``), ``block_draws`` (``rng.mark_grid``) and
``block_rounds`` (the rounds of blocks that mark nothing and only get
their records: the marking rounds less the ``bl._mark_round`` calls and
the final shortcut rounds); and the (mask, proper non-empty submask) pairs
that ``SubsetCounts.recount`` reads, ``submask_pairs_per_recount``.  A
sampling run also prints ``outer_cleanup_ms_per_round``, the wall time
of the blue shrink's ``State.cleanup`` on the outer state (not the inner
runs'), from one more pass with a timer around it.  Two memory figures
close the output: ``submask_cache_bytes``, what the lists cached by
``_edgeops._submasks`` keep after the runs, and
``subset_counts_build_peak_bytes``, the tracemalloc peak of one
``SubsetCounts`` build on the instance's matrix as it is (as
``core.degree_profile`` builds it).  Imports hypermis
from the ``src/`` beside this directory, so a copy of the script in
another checkout measures that checkout.
Not collected by pytest (the name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from hypermis import _edgeops, bl, generate, rng, sbl  # noqa: E402


# (file, function) of each layer timed on its own
LAYERS = {
    ("bl.py", "cleanup"): "State.cleanup",
    ("bl.py", "incidences"): "State.incidences",
    ("bl.py", "_pair_lists"): "State._pair_lists",
    ("bl.py", "_holding"): "State._holding",
    ("_edgeops.py", "__init__"): "SubsetCounts.__init__",
    ("_edgeops.py", "holders"): "SubsetCounts.holders",
    ("_edgeops.py", "recount"): "SubsetCounts.recount",
    ("_edgeops.py", "pairs"): "SubsetCounts.pairs",
    ("_edgeops.py", "is_maximal_on"): "is_maximal_on",
    ("rng.py", "uniforms"): "rng.uniforms",
    ("rng.py", "marks"): "rng.marks",
    ("rng.py", "mark_grid"): "rng.mark_grid",
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
    ap.add_argument("--sbl-p", type=float, help="run the sampling solver at this p")
    ap.add_argument("--d-cap", type=int, default=3, help="its dimension cap")
    return ap.parse_args(argv)


def outer_cleanup_seconds(solve_all) -> float:
    """Wall time of ``State.cleanup`` calls made outside an inner
    ``run_bl`` while `solve_all` runs."""
    cleanup, run_bl = bl.State.cleanup, sbl.run_bl
    inner, total = [0], [0.0]

    def timed_cleanup(self, *args):
        start = time.perf_counter()
        try:
            return cleanup(self, *args)
        finally:
            if not inner[0]:
                total[0] += time.perf_counter() - start

    def counted_run_bl(*args):
        inner[0] += 1
        try:
            return run_bl(*args)
        finally:
            inner[0] -= 1

    bl.State.cleanup, sbl.run_bl = timed_cleanup, counted_run_bl
    try:
        solve_all()
    finally:
        bl.State.cleanup, sbl.run_bl = cleanup, run_bl
    return total[0]


def work_counts(solve_all) -> dict[str, int]:
    """Single-round draws, block draws, rounds recorded by blocks,
    recounts and the (mask, submask) pairs the recounts read while
    `solve_all` runs."""
    marks, mark_grid, recount = rng.marks, rng.mark_grid, _edgeops.SubsetCounts.recount
    mark_round, record = bl._mark_round, bl.BlRoundRecord
    seen = dict.fromkeys(["single", "blocks", "records", "marked", "shortcut", "recounts",
                          "pairs"], 0)

    def counted_marks(*args):
        seen["single"] += 1
        return marks(*args)

    def counted_grid(*args):
        seen["blocks"] += 1
        return mark_grid(*args)

    def counted_mark_round(*args):
        seen["marked"] += 1
        return mark_round(*args)

    def counted_record(*args):
        rec = record(*args)
        seen["records"] += 1
        seen["shortcut"] += rec.delta == 0.0  # only the final shortcut round has delta 0
        return rec

    def counted_recount(self, rows, old, new):
        seen["recounts"] += 1
        for masks in old, new:
            seen["pairs"] += int(np.maximum((1 << np.bitwise_count(masks)) - 2, 0).sum())
        return recount(self, rows, old, new)

    rng.marks, rng.mark_grid = counted_marks, counted_grid
    _edgeops.SubsetCounts.recount = counted_recount
    bl._mark_round, bl.BlRoundRecord = counted_mark_round, counted_record
    try:
        solve_all()
    finally:
        rng.marks, rng.mark_grid = marks, mark_grid
        _edgeops.SubsetCounts.recount = recount
        bl._mark_round, bl.BlRoundRecord = mark_round, record
    seen["block_rounds"] = seen["records"] - seen["marked"] - seen["shortcut"]
    return seen


def submask_cache_bytes(solve_all) -> int:
    """Bytes of the submask lists that `solve_all` reads, all of which
    ``_edgeops._submasks`` keeps cached after it."""
    submasks, widths = _edgeops._submasks, set()

    def seen_submasks(width):
        widths.add(width)
        return submasks(width)

    _edgeops._submasks = seen_submasks
    try:
        solve_all()
    finally:
        _edgeops._submasks = submasks
    return sum(a.nbytes for w in widths for a in submasks(w))


def build_peak_bytes(h) -> int:
    """tracemalloc peak of one ``SubsetCounts`` build on `h`'s matrix."""
    mat, sizes = h.arrays
    tracemalloc.start()
    try:
        _edgeops.SubsetCounts(mat, sizes, h.n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    dim_range = tuple(map(int, args.dim_range.split(":"))) if args.dim_range else None
    spec = generate.GenSpec(n=args.n, kind=args.kind, seed=args.gen_seed, m=args.m,
                            dim=args.dim, dim_range=dim_range)
    h = generate.gen(spec)
    if args.sbl_p is None:
        solve = bl.run_bl
        cfgs = [bl.BlConfig(seed=s, p_mode=args.p_mode, p_override=args.p,
                            max_rounds=args.max_rounds) for s in args.seeds]
    else:
        solve = sbl.run_sbl
        cfgs = [sbl.SblConfig(seed=s, p_override=args.sbl_p, d_cap_override=args.d_cap,
                              max_rounds=args.max_rounds) for s in args.seeds]

    def solve_all():
        return sum(len(solve(h, cfg).rounds) for cfg in cfgs)

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
    seen = work_counts(solve_all)
    draws = seen["single"] + seen["blocks"]
    print(f"coin_draws: {draws}, rounds_per_draw: {rounds / max(draws, 1):.2f}")
    print(f"single_rounds: {seen['single']}, block_draws: {seen['blocks']}, "
          f"block_rounds: {seen['block_rounds']}")
    recounts, pairs = seen["recounts"], seen["pairs"]
    print(f"recounts: {recounts}, submask_pairs_per_recount: {pairs / max(recounts, 1):.1f}")
    if args.sbl_p is not None:
        print(f"outer_cleanup_ms_per_round: {per_round * outer_cleanup_seconds(solve_all):.4f}")
    print(f"submask_cache_bytes: {submask_cache_bytes(solve_all)}")
    print(f"subset_counts_build_peak_bytes: {build_peak_bytes(h)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
