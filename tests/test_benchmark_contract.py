"""The names the benchmark in perfbench/ reaches into skewtherm through.

The tracer wraps each SPANS entry from outside, the worker clears three
lru caches before every cold unit and reads the preimage cache's hit and
miss counts; a refactor that renames or removes any of them breaks the
traced benchmark, so it must break a test first.  The benchmark's selftest
runs here too: a change that breaks a workload's calls or checks fails it.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from skewtherm import BasePoint, GridFn2D, TrigPotential, operators
from skewtherm.fibers import grid_preimages
from skewtherm.operators import _full_stencil, fiber_stencils

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for span, module, path, _ in load("tracer").SPANS:
        owner = importlib.import_module(module)
        *cls, attr = path.split(".")
        if cls:
            target = vars(getattr(owner, cls[0])).get(attr)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{span}: {module}.{path} is gone"


def test_cleared_caches_exist():
    caches = load("worker").import_program()
    assert set(caches) == {"preimage", "full_stencil", "base_geometry"}
    for name, cache in caches.items():
        assert callable(getattr(cache, "cache_clear", None)), name
    # layer_metrics reads the preimage cache's hit and miss counts
    info = caches["preimage"].cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)


def test_full_stencil_hook_reads_a_real_stencil(family):
    # the tracer's return hook reads idx, wgt and size of the full operator
    pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
    stencil = _full_stencil(pot, family, 16, 32)
    counters = {}
    load("tracer")._on_full_stencil(counters, stencil)
    assert counters["full_stencil_bytes"] == 16 * 32 * 8 * (8 + 8)
    assert counters["bytes_per_apply"] == (counters["full_stencil_bytes"]
                                           + 8 * 16 * 32 * 8 + 8 * 16 * 32)
    assert stencil.step(GridFn2D.ones(16, 32)).shape == (16, 32)


def test_grid_preimages_hook_reads_a_block(family, rng):
    # the tracer's return hook unpacks the (y1, y2) pair of a whole block
    xs = [BasePoint.random(rng, 60) for _ in range(3)]
    y1, y2 = out = grid_preimages(family, xs, 64)
    counters = {"preimage_tables": {}}
    load("tracer")._on_grid_preimages(counters, out)
    assert list(counters["preimage_tables"].values()) == [2 * 3 * 64 * 8]
    assert y1.shape == y2.shape == (3, 64)


def test_fiber_stencils_reach_the_traced_preimages(family, monkeypatch, rng):
    # the traced preimage metrics count operators.grid_preimages calls: one
    # per block of fiber stencils, so a builder that bypassed it would
    # leave them reading 0
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return grid_preimages(*args, **kwargs)

    monkeypatch.setattr(operators, "grid_preimages", counted)
    pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
    x = BasePoint.random(rng, 60)
    fiber_stencils(pot, family, [x.forward(k) for k in range(10)], 64)
    assert len(calls) == 1
    fiber_stencils(pot, family, [x], 64)
    assert len(calls) == 2


def test_selftest_passes():
    # every workload's unit runs once, clean and perturbed, with its checks
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
