"""Record the digests that the golden-output test must match.

    python3 tests/record_golden.py

Runs every case built on :data:`INSTANCES` through ``hypermis.cli.main`` in this
process and writes the SHA-256 of each output (stdout, stderr, and the
round trace where one is written) to ``tests/golden_outputs.json``.  The
cases cover the ``gen`` text of every family and of ``edge_probability``,
``solve`` for each algorithm with its trace, ``verify``, the ``analyze``
JSON and every ``experiment`` CSV, on four small instances.  Re-record
only for a change that is meant to alter those bytes, and say why in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden_outputs.json"

# name -> `hypermis gen` flags (without --out)
INSTANCES = {
    "uniform": ["--n", "60", "--kind", "uniform-d", "--dim", "3", "--m", "120", "--seed", "1"],
    "mixed": ["--n", "30", "--kind", "mixed-dims", "--dim-range", "2:4", "--m", "25", "--seed", "2"],
    "linear": ["--n", "40", "--kind", "linear", "--dim", "3", "--m", "15", "--seed", "3"],
    "edge-prob": ["--n", "14", "--kind", "uniform-d", "--dim", "3", "--edge-probability", "0.05",
                  "--seed", "4"],
}


def _first_edge(text: str) -> list[str]:
    """The ids of the first edge line of .hg text (1 2 when it has none)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return lines[1].split() if len(lines) > 1 else ["1", "2"]


def _run(argv: list[str]) -> tuple[int, str, str]:
    from hypermis.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(workdir: Path) -> dict[str, dict]:
    """Run every case with its files in `workdir`; the outputs are hashed
    with `workdir` written as ``<dir>``, so the digests do not depend on it."""
    result = {}

    def record(name, argv, trace=None):
        code, out, err = _run(argv)
        entry = {"code": code, "stdout": out, "stderr": err}
        if trace is not None:
            entry["trace"] = trace.read_text(encoding="utf-8")
        result[name] = {
            k: v if k == "code" else _sha(v.replace(str(workdir), "<dir>"))
            for k, v in entry.items()
        }
        return out

    for inst, flags in INSTANCES.items():
        hg = workdir / f"{inst}.hg"
        text = record(f"{inst}/gen", ["gen", *flags])
        hg.write_text(text, encoding="utf-8")
        for algo in ("bl", "sbl", "greedy"):
            trace = workdir / f"{inst}-{algo}.jsonl"
            argv = ["solve", str(hg), "--algo", algo, "--seed", "7"]
            if algo != "greedy":
                argv += ["--trace", str(trace)]
            out = record(f"{inst}/solve-{algo}", argv, trace if algo != "greedy" else None)
            if algo == "bl":
                mis = workdir / f"{inst}-mis.json"
                mis.write_text(out, encoding="utf-8")
                record(f"{inst}/verify", ["verify", str(hg), str(mis)])
        record(f"{inst}/analyze", ["analyze", str(hg)])
        edge = _first_edge(text)
        exp = ["--seed", "5", "--trials", "2000"]
        record(f"{inst}/lemma1", ["experiment", "lemma1", str(hg), *exp, "--x", edge[0]])
        record(f"{inst}/lemma2", ["experiment", "lemma2", str(hg), *exp,
                                  "--x", ",".join(edge[:-1]), "--j", "1"])
        for which in ("tail", "migration"):
            record(f"{inst}/{which}", ["experiment", which, str(hg), *exp, "--x", edge[0],
                                       "--j", "1", "--k", str(len(edge) - 1), "--delta", "20"])
    return result


def main() -> int:
    sys.path.insert(0, str(TESTS.parent / "src"))  # _run imports hypermis from here
    with tempfile.TemporaryDirectory() as tmp:
        recorded = digests(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
