"""Benchmark of the hypermis solvers and analysis workbench.

One process runs one workload as a closed loop with a single client: the
next operation starts when the previous one has returned.  An operation
is one ``bl.run_bl`` or ``sbl.run_sbl`` call with its own solver seed,
or one workbench pass.  The workload's instances are made from ``--seed``
(see ``workloads.json``), so the same seed gives the same inputs;
operations take the instances in turn.

    python3 perfbench/run.py --workload bl-uniform3 --seed 1 --seconds 25 --trace 0

``--trace 0`` sets the instances up, runs one warm-up operation and then
operations for ``--seconds`` seconds, each followed by a batch of the
greedy MIS reference (the host-drift reference), and reports the
end-to-end metrics.  Timed sections are bracketed by a fixed calibration
block and rescaled to a host of fixed speed (see ``HostClock``); the
times as measured are printed beside them.  ``--trace 1``
runs the workload's fixed ``trace_ops`` operations untraced and then
traced, reports the per-layer metrics and the tracing overhead, and
writes the spans to ``.perfbench-out/``.  Every operation's output is
checked outside the timed region; at the default seed its digest must
also match ``digests.json``.  ``--smoke`` swaps in a tiny instance and a
single operation, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPS = 8
MIN_OPS = 3
# The host-speed calibration block (see HostClock): a pure-Python loop of
# CAL_LOOP steps, np.unique over CAL_KEYS keys, and CAL_HOPS steps along a
# random cycle through a table of CAL_TABLE entries (8 MiB, so most steps
# miss the core's own caches), about a third of the time each; and,
# roughly, the block's time on a quiet core of the 2-core x86-64 host the
# baseline was recorded on.
CAL_LOOP = 80_000
CAL_KEYS = 65_536
CAL_HOPS = 40_000
CAL_TABLE = 1 << 20
CAL_NOMINAL_S = 0.025
REF_BATCH_S = 0.05  # a reference batch repeats greedy_mis for at least this long

END_TO_END = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Figures of the traced run.  A layer's self_share is its self time (the
# time of its calls minus that of the traced calls they make) as a share
# of the traced operations' wall time, or of the traced set-ups' for the
# set-up layers; counts are per operation.  A layer a workload never
# reaches reads 0 there.
PER_LAYER = {
    "edgeops.prune_supersets.self_share": "ratio",
    "edgeops.prune_supersets.calls": "count",
    "edgeops.prune_supersets.rows_dropped": "count",
    "edgeops.dedupe_rows.self_share": "ratio",
    "edgeops.dedupe_rows.rows_dropped": "count",
    "edgeops.remove_vertices.self_share": "ratio",
    "edgeops.max_norm_degree.self_share": "ratio",
    "edgeops.max_norm_degree.calls": "count",
    "edgeops.max_norm_degree.unpacked_calls": "count",
    "edgeops.edge_matrix.self_share": "ratio",
    "edgeops.edge_matrix.calls": "count",
    "core.normalize.self_share": "ratio",
    "core.normalize.calls": "count",
    "core.normalize.edges_dropped": "count",
    "core.is_maximal_independent.self_share": "ratio",
    "core.parse_hg.self_share": "ratio",
    "core.degree_profile.self_share": "ratio",
    "generate.gen.self_share": "ratio",
    "rng.uniforms.self_share": "ratio",
    "rng.uniforms.ids": "count",
    "rng.uniform_grid.self_share": "ratio",
    "bl.run_bl.self_share": "ratio",
    "bl.run_bl.calls": "count",
    "bl.run_bl.rounds": "count",
    "bl.run_bl.productive_round_ratio": "ratio",
    "sbl.sbl_round.self_share": "ratio",
    "sbl.sbl_round.calls": "count",
    "sbl.sbl_round.gate_reject_ratio": "ratio",
    "baseline.greedy_mis_over.self_share": "ratio",
    "analysis.potential_report.self_share": "ratio",
    "analysis.estimate_unmark_given_marked.self_share": "ratio",
    "analysis.estimate_neighborhood_hit.self_share": "ratio",
    "analysis.tail_experiment.self_share": "ratio",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
    "baseline.greedy_mis.s": "s",
    "host.calibration_s": "s",
}
RUN_LEVEL = ("trace.op_s", "trace.overhead_ratio", "baseline.greedy_mis.s", "host.calibration_s")
SETUP_SPANS = ("generate.gen", "core.parse_hg")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instance, one operation")
    return ap.parse_args(argv)


def import_library():
    """Import hypermis from this checkout's sources, never from elsewhere."""
    pkg = SRC / "hypermis"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hypermis sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import hypermis

    if Path(hypermis.__file__).resolve().parent != pkg:
        raise SystemExit(f"perfbench: imported hypermis from {hypermis.__file__}, not {pkg}")


class HostClock:
    """Rescales wall times to a host of fixed speed.

    The benchmark shares a host whose speed for one process swings by up
    to 1.7x within a minute, with other tenants' load: the swing shows
    neither as steal time nor in the process's CPU time, and it moves a
    run's median as much as a real change would.  So each timed section
    is bracketed by a fixed block of work owned by the benchmark, which no
    change to hypermis can speed up or slow down, and its wall time is
    scaled by CAL_NOMINAL_S over the block's mean time just before and
    just after it: the time the section would take on a host where the
    block takes CAL_NOMINAL_S.  The block mixes an interpreter loop, a
    numpy sort and a walk through a table too large for the core's own
    caches, because on that host the operations slowed less than the
    first two alone and more than the first and last alone.
    """

    _keys = np.random.default_rng(1).integers(0, 1 << 40, size=CAL_KEYS)

    def __init__(self):
        self.samples: list[float] = []  # the block's times
        self.walls: list[float] = []  # the rescaled sections' times as measured
        order = np.random.default_rng(0).permutation(CAL_TABLE)
        cycle = np.empty_like(order)
        cycle[order] = np.roll(order, -1)  # one cycle through every entry
        self._cycle = array("q", cycle.astype(np.int64).tobytes())

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        np.unique(self._keys)
        j, cycle = 0, self._cycle
        for _ in range(CAL_HOPS):
            j = cycle[j]
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def rescale(self, wall: float) -> float:
        """`wall` of the section that ran since the last sample."""
        self.walls.append(wall)
        before, after = self.samples[-1], self.sample()
        return wall * 2 * CAL_NOMINAL_S / (before + after)

    def median(self) -> float:
        return statistics.median(self.samples)


class Runner:
    """Runs and checks operations on a run's instances, counting failures.

    With `reference` set, every operation is followed by a batch of the
    greedy MIS reference, so the reference samples the host's speed over
    the same window as the operations.
    """

    def __init__(self, wl, hs, seed: int, expected: list[str], reference: bool = False):
        self.wl, self.hs, self.seed = wl, hs, seed
        self.expected = expected  # recorded digests by operation index
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.rounds: dict[int, int] = {}
        self.ref_batch = 0
        self.ref_per_call: list[float] = []

    def run(self, index: int, clock: HostClock | None = None) -> float:
        """Run and check operation `index`; return its wall time, rescaled
        by `clock` when one is given, which counts as well when the
        operation fails."""
        self.attempted += 1
        h = self.hs[index % len(self.hs)]
        if clock:
            clock.sample()
        t0 = time.perf_counter()
        try:
            out = self.wl.run(h, self.seed, index)
        except Exception:
            out = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        if clock:
            elapsed = clock.rescale(elapsed)
        if out is None:
            self.failed += 1
        else:
            self._check(h, index, out)
        if self.reference:
            self._reference(h)
        return elapsed

    def _check(self, h, index: int, out) -> None:
        outcome = self.wl.check(h, out)
        problems = [outcome.detail] if not outcome.ok else []
        if index < len(self.expected) and outcome.digest != self.expected[index]:
            problems.append("digest differs from the recorded one")
        if problems:
            print(f"perfbench: operation {index} failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
        self.digests[index] = outcome.digest
        if outcome.rounds is not None:
            self.rounds[index] = outcome.rounds

    def _reference(self, h) -> None:
        batch = self.ref_batch or 1
        t0 = time.perf_counter()
        for _ in range(batch):
            self.wl.reference(h)
        elapsed = time.perf_counter() - t0
        self.ref_per_call.append(elapsed / batch)
        if not self.ref_batch:
            self.ref_batch = max(1, math.ceil(REF_BATCH_S / max(elapsed, 1e-9)))


def timed_setups(wl, seed: int, clock: HostClock | None = None):
    """Set up each of the run's instances, together at least SETUP_REPS
    times; return the instances and the median set-up time, rescaled by
    `clock` when one is given."""
    seeds = wl.instance_seeds(seed)
    hs, times = [], []
    for gen_seed in seeds:
        for _ in range(math.ceil(SETUP_REPS / len(seeds))):
            if clock:
                clock.sample()
            t0 = time.perf_counter()
            h = wl.setup(gen_seed)
            wall = time.perf_counter() - t0
            times.append(clock.rescale(wall) if clock else wall)
        hs.append(h)
    return hs, statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def timed_run(wl, seed: int, seconds: float, expected: list[str]):
    """Run distinct operations, round-robin over the run's instances,
    until `seconds` have gone and at least MIN_OPS have run.  op_s and
    setup_s are medians of host-speed-rescaled times (see `rescale`)."""
    clock = HostClock()
    hs, setup_s = timed_setups(wl, seed, clock)
    runner = Runner(wl, hs, seed, expected, reference=True)
    runner.run(0)  # warm-up, checked but not counted
    walls_before = len(clock.walls)
    times = []
    start = time.perf_counter()
    while len(times) < MIN_OPS or time.perf_counter() - start < seconds:
        times.append(runner.run(len(times) + 1, clock))
    walls = clock.walls[walls_before:]
    window = time.perf_counter() - start
    op_s = statistics.median(times)
    q1, q3 = quartiles(times)
    ref_s = statistics.median(runner.ref_per_call)
    metrics = {"op_s": op_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    lines = [
        f"workload {wl.name}  seed {seed}  ops {len(times)} timed + 1 warm-up"
        f"  window {window:.1f} s",
        f"op_s {op_s:.6f} s  (q1 {q1:.6f}, q3 {q3:.6f}, n {len(times)}; rescaled to"
        f" calibration {CAL_NOMINAL_S} s)",
        f"op wall time {statistics.median(walls):.6f} s  (q1 {quartiles(walls)[0]:.6f},"
        f" q3 {quartiles(walls)[1]:.6f}; as measured)",
        f"host.calibration_s {clock.median():.6f} s  (median of {len(clock.samples)})",
        f"setup_s {setup_s:.6f} s  (median over the set-ups, rescaled like op_s)",
    ]
    rounds = [r for i, r in runner.rounds.items() if i > 0]
    if rounds:
        lines.append(f"rounds {statistics.median(rounds):g} count  (median per solve)")
    lines += [
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MiB",
        f"failed_ratio {runner.failed / runner.attempted:.4f} ratio"
        f"  ({runner.failed} of {runner.attempted})",
        f"baseline.greedy_mis.s {ref_s:.6f} s  (host-drift reference, median of"
        f" {len(runner.ref_per_call)} batches between operations;"
        f" the op wall time is {statistics.median(walls) / ref_s:.1f} of it)",
    ]
    return metrics, END_TO_END, lines, runner.attempted, runner.failed, runner.failed == 0


def layer_value(stats, name: str, n_ops: int, wall: dict[str, float]) -> float:
    span, stat = name.rsplit(".", 1)
    phase = "setup" if span in SETUP_SPANS else "op"
    st = stats[phase][span]
    if stat == "self_share":
        return st["self_s"] / wall[phase]
    if stat == "productive_round_ratio":
        return st["productive_rounds"] / st["rounds"] if st["rounds"] else 0.0
    if stat == "gate_reject_ratio":
        tries = st["retries"] + st["calls"]
        return st["retries"] / tries if tries else 0.0
    return st[stat] / n_ops


def share_lines(op_stats, n_ops: int, op_wall: float) -> list[str]:
    """Self time of the traced operations, by module and by function."""
    by_span = {span: st["self_s"] for span, st in op_stats.items() if st["self_s"] > 0}
    by_module: dict[str, float] = {}
    for span, t in by_span.items():
        module = span.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + t
    lines = ["self time per traced operation, by module:"]
    for name, t in sorted(by_module.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {100 * t / op_wall:5.1f}%  {t / n_ops:9.4f} s  {name}")
    lines.append("by function (top 8):")
    for name, t in sorted(by_span.items(), key=lambda kv: -kv[1])[:8]:
        lines.append(f"  {100 * t / op_wall:5.1f}%  {t / n_ops:9.4f} s  {name}")
    return lines


def traced_run(wl, seed: int, expected: list[str]):
    from tracer import Tracer

    clock = HostClock()
    hs, _ = timed_setups(wl, seed)
    plain = Runner(wl, hs, seed, expected, reference=True)
    plain.run(0)  # warm-up
    ops = range(1, wl.trace_ops + 1)
    plain_s = sum(plain.run(i, clock) for i in ops)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        setup_wall = 0.0
        for r, gen_seed in enumerate(wl.instance_seeds(seed)):
            tracer.op_id = f"setup-{r}"
            t0 = time.perf_counter()
            wl.setup(gen_seed)
            setup_wall += time.perf_counter() - t0
        tracer.phase = "op"
        traced = Runner(wl, hs, seed, expected)
        traced_s = 0.0
        for i in ops:
            tracer.op_id = f"op-{i}"
            traced_s += traced.run(i, clock)
    finally:
        tracer.uninstall()
    traced_wall = sum(clock.walls[len(ops):])

    same = all(traced.digests.get(i) == plain.digests.get(i) for i in ops)
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    wall = {"setup": setup_wall, "op": traced_wall}
    metrics = {
        name: layer_value(tracer.stats, name, len(ops), wall)
        for name in PER_LAYER
        if name not in RUN_LEVEL
    }
    metrics["trace.op_s"] = traced_s / len(ops)
    metrics["trace.overhead_ratio"] = overhead
    metrics["baseline.greedy_mis.s"] = statistics.median(plain.ref_per_call)
    metrics["host.calibration_s"] = clock.median()

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl"
    tracer.write(trace_path)

    lines = [
        f"workload {wl.name}  seed {seed}  traced ops {len(ops)}  spans {len(tracer.spans)}"
        f"  written to {trace_path.relative_to(ROOT)}",
        f"trace digests equal untraced: {same}",
        f"trace.overhead_ratio {overhead:.4f} ratio  (traced {traced_s:.3f} s"
        f" vs untraced {plain_s:.3f} s over the same operations, both rescaled"
        f" to calibration {CAL_NOMINAL_S} s)",
    ]
    lines += share_lines(tracer.stats["op"], len(ops), traced_wall)
    lines += [f"{name} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    correct = failed == 0 and same
    return metrics, PER_LAYER, lines, attempted, failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    sys.path.insert(0, str(HERE))
    import workloads

    design = workloads.load_design()
    if args.workload not in design["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r};"
              f" one of {', '.join(design['workloads'])}", file=sys.stderr)
        return 2
    seed = design["default_seed"] if args.seed is None else args.seed
    wl = workloads.Workload(args.workload, design["workloads"][args.workload], args.smoke)
    expected = []
    if seed == design["default_seed"] and not args.smoke:
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        expected = recorded.get(args.workload, [])
    seconds = 0.0 if args.smoke else args.seconds
    if args.trace:
        metrics, units, lines, attempted, failed, correct = traced_run(wl, seed, expected)
    else:
        metrics, units, lines, attempted, failed, correct = timed_run(
            wl, seed, seconds, expected
        )
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
