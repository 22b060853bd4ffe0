"""In-memory span tracer for the traced benchmark run.

The tracer replaces a library function with a timing wrapper in every
hypermis module that holds it: ``bl`` and ``sbl`` read the kernels as
``ops.<fn>``, so wrapping the ``_edgeops`` attribute covers them, while
``sbl`` imports ``run_bl``, ``normalize``, ``greedy_mis_over`` and
``is_maximal_independent`` by name and ``bl`` imports ``normalize`` by
name, so those copies are wrapped too.  Spans (name, start, end, parent,
operation id) stay in memory until the run ends; per-layer self time and
counts are accumulated per phase ("setup" or "op") as spans close.

A span is named ``<module>.<function>``; spans of ``hypermis._edgeops``
are named ``edgeops.<function>`` because metric names start with a letter.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from hypermis import _edgeops, analysis, baseline, bl, core, generate, rng, sbl

MODULES = {
    "edgeops": _edgeops,
    "analysis": analysis,
    "baseline": baseline,
    "bl": bl,
    "core": core,
    "generate": generate,
    "rng": rng,
    "sbl": sbl,
}


def _rows_dropped(st, args, out):
    st["rows_dropped"] += args[0].shape[0] - out[0].shape[0]


def _unpacked(st, args, out):
    _, sizes, n = args
    widest = int(sizes.max()) if len(sizes) else 0
    if widest >= 2 and (widest - 1) * max(n.bit_length(), 1) > 63:
        st["unpacked_calls"] += 1


def _edges_dropped(st, args, out):
    st["edges_dropped"] += args[0].m - out.m


def _ids(st, args, out):
    st["ids"] += len(args[1])


def _bl_rounds(st, args, out):
    st["rounds"] += len(out.rounds)
    st["productive_rounds"] += sum(1 for rec in out.rounds if rec.added)


def _gate_retries(st, args, out):
    st["retries"] += out[4].retries


# span name -> counter run on (stats, args, return value); None counts
# only calls and self time.
TARGETS = {
    "edgeops.edge_matrix": None,
    "edgeops.remove_vertices": None,
    "edgeops.dedupe_rows": _rows_dropped,
    "edgeops.prune_supersets": _rows_dropped,
    "edgeops.max_norm_degree": _unpacked,
    "core.normalize": _edges_dropped,
    "core.is_maximal_independent": None,
    "core.format_hg": None,
    "core.parse_hg": None,
    "core.degree_profile": None,
    "generate.gen": None,
    "rng.uniforms": _ids,
    "rng.uniform_grid": None,
    "bl.run_bl": _bl_rounds,
    "sbl.run_sbl": None,
    "sbl.sbl_round": _gate_retries,
    "baseline.greedy_mis": None,
    "baseline.greedy_mis_over": None,
    "analysis.potential_report": None,
    "analysis.kelsen_constants": None,
    "analysis.migration_hypergraph": None,
    "analysis.estimate_unmark_given_marked": None,
    "analysis.estimate_neighborhood_hit": None,
    "analysis.tail_experiment": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stats = {
            phase: defaultdict(lambda: defaultdict(float)) for phase in ("setup", "op")
        }
        self.phase = "op"
        self.op_id: str | None = None
        self._open: list[int] = []  # indices of open spans, innermost last
        self._child: list[float] = []  # time of closed children per open span
        self._restore: list[tuple] = []

    def span(self, name: str, fn, count=None):
        """Wrap `fn` so each call records a span named `name`."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op_id])
            self._open.append(idx)
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                child = self._child.pop()
                if self._child:
                    self._child[-1] += end - start
                self.spans[idx][1:3] = start, end
                st = self.stats[self.phase][name]
                st["self_s"] += end - start - child
                st["calls"] += 1
            if count is not None:
                count(st, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every hypermis module that holds it."""
        for name, count in TARGETS.items():
            home, attr = name.split(".", 1)
            original = getattr(MODULES[home], attr)
            wrapped = self.span(name, original, count)
            for mod in MODULES.values():
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - t0, "end": end - t0,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
