"""Print where one analysis workbench pass spends its time and its coins,
part by part.

    python3 tests/workbench_cost.py
    python3 tests/workbench_cost.py --seed 52 --reps 9

The pass is perfbench's ``workbench-mc`` operation (``workbench_pass``
in ``perfbench/workloads.py``), on that workload's instance for the
workload seed ``--seed`` and with its Monte Carlo seed.  The library
calls the pass makes are wrapped by module attribute and timed
(``perf_counter``), ``rng.mark_grid`` is wrapped to count the coin
cells (trials x ids) each part draws, ``analysis._mark_chunks`` to
count the trials that pass an estimator's gate and so draw all their
coins (the widths of the mark matrices it yields), and
``_edgeops.SubsetCounts`` to count its builds.  Every pass runs on a
fresh copy of the instance, so no pass reads what a hypergraph kept from
an earlier one (its degree profile and incidence index).  The parts:

- degree profile: ``core.degree_profile`` and ``analysis.potential_report``;
- constants: ``analysis.kelsen_constants`` and ``analysis.eval_D`` (the
  tail thresholds);
- lemma 1: ``analysis.estimate_unmark_given_marked``;
- lemma 2: ``analysis.estimate_neighborhood_hit``;
- migration build: ``analysis.migration_hypergraph``;
- tail: ``analysis.tail_experiment``;
- other: the rest of the pass (its pair and vertex counts).

One pass runs untimed (warm-up), then ``--reps`` timed passes; each part
prints its median ms over the passes, and its coin cells and fully drawn
trials per pass, which repeat exactly, and the last line the
``SubsetCounts`` builds per pass.  Imports hypermis from the
``src/`` and the pass from the ``perfbench/`` beside this directory, so a
copy of the script in another checkout measures that checkout.  Not collected by pytest (the name does
not start with ``test_``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hypermis import _edgeops, analysis, core, rng  # noqa: E402
import workloads  # noqa: E402

PARTS = {
    (core, "degree_profile"): "degree profile",
    (analysis, "potential_report"): "degree profile",
    (analysis, "kelsen_constants"): "constants",
    (analysis, "eval_D"): "constants",
    (analysis, "estimate_unmark_given_marked"): "lemma 1",
    (analysis, "estimate_neighborhood_hit"): "lemma 2",
    (analysis, "migration_hypergraph"): "migration build",
    (analysis, "tail_experiment"): "tail",
}
ORDER = ["degree profile", "constants", "lemma 1", "lemma 2", "migration build", "tail"]


class Meter:
    """Seconds and coin cells per part, while installed."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.cells = defaultdict(int)
        self.drawn = defaultdict(int)
        self.builds = 0
        self.part = None
        self.saved = []

    def _timed(self, part, fn):
        def wrapper(*args, **kwargs):
            self.part = part
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[part] += time.perf_counter() - start
                self.part = None
        return wrapper

    def _counted(self, fn):
        def wrapper(key, rows, cols, p):
            self.cells[self.part or "other"] += len(rows) * len(cols)
            return fn(key, rows, cols, p)
        return wrapper

    def _built(self, cls):
        def wrapper(*args):
            self.builds += 1
            return cls(*args)
        return wrapper

    def _passing(self, fn):
        def wrapper(*args, **kwargs):
            for marks in fn(*args, **kwargs):
                self.drawn[self.part or "other"] += marks.shape[1]
                yield marks
        return wrapper

    def install(self):
        for (mod, name), part in PARTS.items():
            self.saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, self._timed(part, getattr(mod, name)))
        self.saved.append((rng, "mark_grid", rng.mark_grid))
        rng.mark_grid = self._counted(rng.mark_grid)
        self.saved.append((_edgeops, "SubsetCounts", _edgeops.SubsetCounts))
        _edgeops.SubsetCounts = self._built(_edgeops.SubsetCounts)
        self.saved.append((analysis, "_mark_chunks", analysis._mark_chunks))
        analysis._mark_chunks = self._passing(analysis._mark_chunks)

    def uninstall(self):
        for mod, name, fn in reversed(self.saved):
            setattr(mod, name, fn)
        self.saved.clear()


def fresh(h: core.Hypergraph) -> core.Hypergraph:
    """The hypergraph of the same rows, with nothing derived from them kept."""
    return core.Hypergraph._from_rows(h.n, *h.arrays)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=51, help="workload seed")
    ap.add_argument("--index", type=int, default=0, help="operation index within the run")
    ap.add_argument("--reps", type=int, default=5)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    name = "workbench-mc"
    work = workloads.Workload(name, workloads.load_design()["workloads"][name])
    seeds = work.instance_seeds(args.seed)
    h = work.setup(seeds[args.index % len(seeds)])
    work.run(fresh(h), args.seed, args.index)  # warm-up
    passes = []
    for _ in range(args.reps):
        meter = Meter()
        copy = fresh(h)
        meter.install()
        try:
            start = time.perf_counter()
            work.run(copy, args.seed, args.index)
            total = time.perf_counter() - start
        finally:
            meter.uninstall()
        meter.seconds["other"] = total - sum(meter.seconds.values())
        meter.seconds["pass"] = total
        passes.append(meter)
    print(f"workload: {name} seed {args.seed} operation {args.index} ({h!r})")
    print(f"{'part':16s} {'ms':>9s} {'coin cells':>12s} {'drawn trials':>13s}")
    for part in ORDER + ["other", "pass"]:
        ms = 1000 * statistics.median(m.seconds[part] for m in passes)
        counts = [passes[0].cells, passes[0].drawn]
        cells, drawn = (sum(c.values()) if part == "pass" else c[part] for c in counts)
        print(f"{part:16s} {ms:9.2f} {cells:12d} {drawn:13d}")
    print(f"SubsetCounts builds per pass: {passes[0].builds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
