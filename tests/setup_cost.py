"""Print the cost of each phase of an instance's set-up: ms and
tracemalloc peak of ``generate.gen``, ``core.format_hg``,
``core.parse_hg`` and the round-trip compare (``==``).

    python3 tests/setup_cost.py --n 4096 --m 8192 --dim 4 --gen-seed 100
    python3 tests/setup_cost.py --n 4096 --m 8192 --dim 3 --gen-seed 100 --reps 50
    python3 tests/setup_cost.py --n 60 --m 1000 --dim 4 --reps 100
    python3 tests/setup_cost.py --n 40 --m 30 --kind mixed-dims --dim-range 10:12

This is the set-up of one benchmark instance (``perfbench/workloads.py``,
``Workload.setup``) split by phase; the benchmark's tracer spans only
``generate.gen`` and ``core.parse_hg``, so it cannot show ``format_hg``,
nor how ``gen`` splits.  One instance is made from the ``GenSpec`` flags.
The set-up runs once untimed (warm-up), then ``--reps`` times with a
``perf_counter`` around each phase, and ``*_ms`` prints the minimum and
the median over the reps; ``gen`` is split into the time spent in
``rng.Stream.sample_rows`` (``sample_rows_ms``) and the rest
(``gen_rest_ms``: ranking the draws, building the Hypergraph), and the
warm-up counts the rows ``sample_rows`` returned and the draws it handed
to ``sample_ids`` (``sample_rows_draws``; at ``--n 60 --m 1000 --dim 4``,
where windows often repeat an id, about one draw in eleven).  Then the
set-up runs once more under ``tracemalloc``, which prints each phase's
peak (``*_peak_mib``: the most the phase held at once, above what was
held when it started) and that of the whole set-up (``setup_peak_mib``).
Imports hypermis from the ``src/`` beside this directory, so a copy of
the script in another checkout measures that checkout.
Not collected by pytest (the name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypermis import core, generate, rng  # noqa: E402

PHASES = ("gen", "format", "parse", "compare")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--kind", default=generate.KIND_UNIFORM)
    ap.add_argument("--dim", type=int)
    ap.add_argument("--dim-range", help="lo:hi, for mixed-dims")
    ap.add_argument("--gen-seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=20, help="timed set-ups")
    return ap.parse_args(argv)


def setup(spec: generate.GenSpec, mark) -> None:
    """One set-up, calling mark(phase) after each phase."""
    h = generate.gen(spec)
    mark("gen")
    text = core.format_hg(h)
    mark("format")
    parsed = core.parse_hg(text)
    mark("parse")
    if parsed != h:
        raise RuntimeError(".hg round trip changed the instance")
    mark("compare")


@contextmanager
def sample_rows_meter(count_redraws: bool):
    """Wrap ``rng.Stream.sample_rows`` (and, if asked, ``sample_ids``, which
    costs a Python call per draw, so timed reps leave it out) for the
    block; yields the tally the wrappers add to: seconds in sample_rows,
    rows it returned and draws it handed to sample_ids."""
    tally = {"s": 0.0, "rows": 0, "redraws": 0}
    sample_rows, sample_ids = rng.Stream.sample_rows, rng.Stream.sample_ids
    inside = False

    def timed_rows(self, n, k, count):
        nonlocal inside
        inside, t0 = True, time.perf_counter()
        out = sample_rows(self, n, k, count)
        inside = False
        tally["s"] += time.perf_counter() - t0
        tally["rows"] += len(out)
        return out

    def counted_ids(self, n, k):
        tally["redraws"] += inside
        return sample_ids(self, n, k)

    rng.Stream.sample_rows = timed_rows
    if count_redraws:
        rng.Stream.sample_ids = counted_ids
    try:
        yield tally
    finally:
        rng.Stream.sample_rows, rng.Stream.sample_ids = sample_rows, sample_ids


def main(argv=None) -> int:
    args = parse_args(argv)
    dim_range = tuple(map(int, args.dim_range.split(":"))) if args.dim_range else None
    spec = generate.GenSpec(n=args.n, kind=args.kind, seed=args.gen_seed, m=args.m,
                            dim=args.dim, dim_range=dim_range)
    with sample_rows_meter(count_redraws=True) as draws:
        setup(spec, lambda phase: None)  # warm-up

    times = {phase: [] for phase in PHASES}
    sampling = []  # seconds in sample_rows, of each rep's gen
    t0 = 0.0

    def mark(phase):
        nonlocal t0
        t1 = time.perf_counter()
        times[phase].append(t1 - t0)
        t0 = t1

    with sample_rows_meter(count_redraws=False) as meter:
        for _ in range(args.reps):
            meter["s"] = 0.0
            t0 = time.perf_counter()
            setup(spec, mark)
            sampling.append(meter["s"])

    peaks, top = {}, 0
    tracemalloc.start()
    start = base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()

    def mark_peak(phase):
        nonlocal base, top
        now, peak = tracemalloc.get_traced_memory()
        peaks[phase], top = peak - base, max(top, peak)
        base = now
        tracemalloc.reset_peak()

    setup(spec, mark_peak)
    tracemalloc.stop()

    print(f"instance: {spec}")
    print(f"reps: {args.reps}")
    rest = [g - s for g, s in zip(times["gen"], sampling)]
    for name, ts in (*times.items(), ("sample_rows", sampling), ("gen_rest", rest)):
        print(f"{name}_ms: min {1000 * min(ts):.3f}, median {1000 * statistics.median(ts):.3f}")
    print(f"sample_rows_draws: {draws['rows']} rows, {draws['redraws']} by sample_ids")
    for phase in PHASES:
        print(f"{phase}_peak_mib: {peaks[phase] / 2**20:.3f}")
    total = [sum(ts) for ts in zip(*times.values())]
    print(f"setup_ms: min {1000 * min(total):.3f}, median {1000 * statistics.median(total):.3f}")
    print(f"setup_peak_mib: {(top - start) / 2**20:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
