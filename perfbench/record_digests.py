"""Record the digests that benchmark runs at the default seed must match.

    python3 perfbench/record_digests.py [--ops 80] [workload ...]

A digest is the SHA-256 of one operation's output (for the solvers: the
MIS, the status and the round trace), so the recorded list pins the
byte-identity contract: for a fixed seed, a solver's MIS, result and
trace do not change.  Re-record only for a change that is meant to alter
those bytes, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, import_library


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ops", type=int, default=80, help="operations per workload, warm-up included")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args(argv)
    import_library()
    import workloads

    design = workloads.load_design()
    seed = design["default_seed"]
    path = HERE / "digests.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    for name in args.workloads or design["workloads"]:
        wl = workloads.Workload(name, design["workloads"][name])
        hs = [wl.setup(gen_seed) for gen_seed in wl.instance_seeds(seed)]
        digests = []
        for index in range(args.ops):
            h = hs[index % len(hs)]
            outcome = wl.check(h, wl.run(h, seed, index))
            if not outcome.ok:
                print(f"{name} operation {index} failed: {outcome.detail}", file=sys.stderr)
                return 1
            digests.append(outcome.digest)
        recorded[name] = digests
        print(f"{name}: {len(digests)} digests", flush=True)
    path.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
