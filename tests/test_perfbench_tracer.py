"""The traced benchmark (perfbench/tracer.py) wraps library functions by
name and reads their return values; a refactor that renames or drops one,
or changes what it returns, fails here in the fast suite as well."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from hypermis.bl import BlConfig
from hypermis.generate import KIND_UNIFORM, GenSpec, gen
from hypermis.sbl import SblConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(tracer, name):
    home, attr = name.split(".", 1)
    return tracer.MODULES[home], attr


def test_tracer_wraps_and_restores_every_target():
    tracer = load_tracer()
    originals = {name: getattr(*target(tracer, name)) for name in tracer.TARGETS}
    t = tracer.Tracer()
    t.install()
    try:
        for name, fn in originals.items():
            assert getattr(*target(tracer, name)).__wrapped__ is fn, name
        # the wrapped solvers run, and the counters read their results
        h = gen(GenSpec(n=60, kind=KIND_UNIFORM, seed=5, m=40, dim=6))
        tracer.MODULES["bl"].run_bl(h, BlConfig(seed=1))
        tracer.MODULES["sbl"].run_sbl(h, SblConfig(seed=9, p_override=0.35, d_cap_override=3))
    finally:
        t.uninstall()
    for name, fn in originals.items():
        assert getattr(*target(tracer, name)) is fn, name
    op = t.stats["op"]
    assert op["sbl.sbl_round"]["calls"] > 0 and op["bl.run_bl"]["rounds"] > 0
